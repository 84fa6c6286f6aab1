//! Layer 2: the long-running scenario server.
//!
//! [`serve`] reads one request per line from a reader, answers one tagged
//! JSON object per line on a writer, and runs sweeps on a [`SweepPool`] —
//! each `submit_sweep` on its own scoped runner thread, which is its
//! sweep's worker 0, so the request loop stays responsive to
//! `status`/`cancel`/`results` (and further submits) while sweeps run. An
//! in-flight sweep holds the pool's worker count in threads. Production
//! wires stdin/stdout; tests wire byte buffers and pipes.
//!
//! Response lines, all tagged with `type`:
//!
//! * `submit_ok {id, sweep, jobs}` — the sweep handle, written **before**
//!   the first outcome so a client can always correlate the stream.
//! * `outcome {sweep, scenario, label, order, seed, completed,
//!   completion_round, cap, rounds, deliveries, collisions}` — one per
//!   finished job, in completion order, which interleaves the workers'
//!   jobs (`order` is the serial position).
//! * `error {code: "job_panicked", sweep, scenario, order, seed, text}` —
//!   in place of the `outcome` line of a job whose run panicked (`text` is
//!   the panic message); the sweep goes on without it.
//! * `sweep_done {sweep, cancelled, completed, total, summary}` — the end
//!   of a sweep's stream; `completed` counts its `outcome` lines, `total`
//!   its jobs, and `summary` holds one matrix digest per scenario, computed
//!   from the pool's [`SeedMatrix`]es (so its aggregates are exactly the
//!   serial sweep's over the jobs that completed).
//! * `status_ok {id, sweep, total, completed, done, cancelled}`,
//!   `cancel_ok {id, sweep}`, `results_ok {id, sweep, summary}` — control
//!   answers.
//! * `error {id?, code, text}` — see [`crate::protocol`]; the loop never
//!   dies on a bad line. A line longer than 1 MiB (1,048,576 bytes) is
//!   answered `malformed_json` unread: the server skips to its newline and
//!   reads on, so no line holds more than that in memory.
//!
//! EOF on the reader ends intake; in-flight sweeps drain to their
//! `sweep_done` lines before [`serve`] returns (the scope join).

use crate::executor::{SweepObserver, SweepPool, SweepProduct};
use crate::protocol::{parse_request, Request, RequestError};
use broadcast::{Outcome, Scenario, SeedMatrix, SweepJob};
use mini_json::Json;
use std::collections::HashMap;
use std::io::{BufRead, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Shared per-sweep state: the request loop reads it for `status`/`results`
/// and flips `cancel`; the sweep's runner thread updates the rest.
#[derive(Debug)]
struct SweepState {
    total: usize,
    completed: AtomicUsize,
    cancel: AtomicBool,
    done: AtomicBool,
    was_cancelled: AtomicBool,
    summary: Mutex<Option<Json>>,
}

impl SweepState {
    fn new(total: usize) -> Self {
        SweepState {
            total,
            completed: AtomicUsize::new(0),
            cancel: AtomicBool::new(false),
            done: AtomicBool::new(false),
            was_cancelled: AtomicBool::new(false),
            summary: Mutex::new(None),
        }
    }
}

/// Writes one response line and flushes it — a line is the protocol's unit
/// of progress, so a client must never wait on a buffered partial line.
fn send<W: Write>(writer: &Mutex<W>, response: &Json) {
    let mut w = writer.lock().expect("service writer poisoned");
    // An I/O error on the response channel (client hung up) is terminal
    // for the stream but not for in-flight sweeps; drop the line.
    let _ = writeln!(w, "{response}");
    let _ = w.flush();
}

/// Streams a running sweep onto the wire and relays cancellation.
struct StreamObserver<'a, W: Write> {
    sweep: u64,
    state: &'a SweepState,
    writer: &'a Mutex<W>,
}

impl<W: Write + Send> SweepObserver for StreamObserver<'_, W> {
    fn outcome(&self, job: SweepJob, scenario: &Scenario, outcome: &Outcome) {
        self.state.completed.fetch_add(1, Ordering::SeqCst);
        send(self.writer, &outcome_json(self.sweep, job, scenario, outcome));
    }

    fn failed(&self, job: SweepJob, _: &Scenario, reason: &str) {
        send(
            self.writer,
            &Json::obj([
                ("type", Json::from("error")),
                ("code", Json::from("job_panicked")),
                ("sweep", Json::from(self.sweep)),
                ("scenario", Json::from(job.scenario)),
                ("order", Json::from(job.order)),
                ("seed", Json::from(job.seed)),
                ("text", Json::from(reason)),
            ]),
        );
    }

    fn cancelled(&self) -> bool {
        self.state.cancel.load(Ordering::SeqCst)
    }
}

/// One `outcome` response line.
fn outcome_json(sweep: u64, job: SweepJob, scenario: &Scenario, outcome: &Outcome) -> Json {
    Json::obj([
        ("type", Json::from("outcome")),
        ("sweep", Json::from(sweep)),
        ("scenario", Json::from(job.scenario)),
        ("label", Json::from(scenario.label())),
        ("order", Json::from(job.order)),
        ("seed", Json::from(job.seed)),
        ("completed", Json::from(outcome.completion_round.is_some())),
        ("completion_round", outcome.completion_round.map_or(Json::Null, Json::from)),
        ("cap", Json::from(outcome.cap)),
        ("rounds", Json::from(outcome.stats.rounds)),
        ("deliveries", Json::from(outcome.stats.deliveries)),
        ("collisions", Json::from(outcome.stats.collisions)),
    ])
}

/// One matrix digest of the final summary (one per scenario).
fn matrix_json(matrix: &SeedMatrix) -> Json {
    Json::obj([
        ("label", Json::from(matrix.label.clone())),
        ("runs", Json::from(matrix.len())),
        ("failures", Json::from(matrix.failures())),
        ("all_within_caps", Json::from(matrix.all_within_caps())),
        ("best_rounds", matrix.best_rounds().map_or(Json::Null, Json::from)),
        ("median_rounds", matrix.median_rounds().map_or(Json::Null, Json::from)),
        ("p95_rounds", matrix.p95_rounds().map_or(Json::Null, Json::from)),
        ("worst_rounds", matrix.worst_rounds().map_or(Json::Null, Json::from)),
        ("mean_rounds", matrix.mean_rounds().map_or(Json::Null, Json::from)),
    ])
}

/// Runs one submitted sweep to its `sweep_done` line (the body of a sweep's
/// runner thread).
fn run_sweep<W: Write + Send>(
    sweep: u64,
    product: SweepProduct,
    pool: SweepPool,
    state: &SweepState,
    writer: &Mutex<W>,
) {
    let observer = StreamObserver { sweep, state, writer };
    let matrices = pool.run_observed(&product, &observer);
    let cancelled = state.cancel.load(Ordering::SeqCst);
    let summary = Json::from(matrices.iter().map(matrix_json).collect::<Vec<_>>());
    *state.summary.lock().expect("sweep summary poisoned") = Some(summary.clone());
    state.was_cancelled.store(cancelled, Ordering::SeqCst);
    state.done.store(true, Ordering::SeqCst);
    send(
        writer,
        &Json::obj([
            ("type", Json::from("sweep_done")),
            ("sweep", Json::from(sweep)),
            ("cancelled", Json::from(cancelled)),
            ("completed", Json::from(state.completed.load(Ordering::SeqCst))),
            ("total", Json::from(state.total)),
            ("summary", summary),
        ]),
    );
}

/// A `status_ok` snapshot of a sweep.
fn status_json(id: u64, sweep: u64, state: &SweepState) -> Json {
    Json::obj([
        ("type", Json::from("status_ok")),
        ("id", Json::from(id)),
        ("sweep", Json::from(sweep)),
        ("total", Json::from(state.total)),
        ("completed", Json::from(state.completed.load(Ordering::SeqCst))),
        ("done", Json::from(state.done.load(Ordering::SeqCst))),
        ("cancelled", Json::from(state.was_cancelled.load(Ordering::SeqCst))),
    ])
}

/// The longest request line [`serve`] reads, in bytes without its newline:
/// about 50,000 explicit 20-digit seeds (longer sweeps use `seed_range`).
const MAX_LINE: usize = 1 << 20;

/// Discards the rest of an over-long line, through its newline.
fn skip_line(reader: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(()); // EOF
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                reader.consume(newline + 1);
                return Ok(());
            }
            None => {
                let len = buf.len();
                reader.consume(len);
            }
        }
    }
}

/// Serves requests from `reader` until EOF (or a failing read), answering
/// on `writer`, running sweeps on `pool`. A line that is not UTF-8 or is
/// longer than 1 MiB is answered as `malformed_json`, like any other
/// unparseable line. Returns once intake has ended **and** every in-flight
/// sweep has drained to its `sweep_done` line. See the module docs for the
/// wire protocol.
pub fn serve<R: BufRead, W: Write + Send>(mut reader: R, writer: W, pool: SweepPool) {
    let writer = Mutex::new(writer);
    // Only the request loop touches the registry; runner threads hold their
    // own `Arc` into it.
    let mut sweeps: HashMap<u64, Arc<SweepState>> = HashMap::new();
    let mut next_sweep: u64 = 1;

    std::thread::scope(|scope| {
        let mut line = Vec::new();
        loop {
            line.clear();
            match reader.by_ref().take(MAX_LINE as u64 + 1).read_until(b'\n', &mut line) {
                Ok(0) | Err(_) => break, // EOF, or the reader died
                Ok(_) => {}
            }
            let request = if line.len() > MAX_LINE && line.last() != Some(&b'\n') {
                if skip_line(&mut reader).is_err() {
                    break;
                }
                Err(RequestError {
                    code: "malformed_json",
                    text: format!("request line longer than {MAX_LINE} bytes"),
                    id: None,
                })
            } else {
                // Without its line ending, as `BufRead::lines` yields it, so
                // parse-error offsets count within the line.
                match std::str::from_utf8(&line).map(|t| t.trim_end_matches(['\n', '\r'])) {
                    Ok(text) if text.trim().is_empty() => continue,
                    Ok(text) => parse_request(text),
                    Err(e) => Err(RequestError {
                        code: "malformed_json",
                        text: format!("line is not UTF-8: {e}"),
                        id: None,
                    }),
                }
            };
            match request {
                Err(err) => send(&writer, &err.to_response()),
                Ok(Request::SubmitSweep { id, product }) => {
                    let sweep = next_sweep;
                    next_sweep += 1;
                    let state = Arc::new(SweepState::new(product.job_count()));
                    sweeps.insert(sweep, Arc::clone(&state));
                    // submit_ok goes out before the runner spawns, so the
                    // handle always precedes the sweep's first outcome line.
                    send(
                        &writer,
                        &Json::obj([
                            ("type", Json::from("submit_ok")),
                            ("id", Json::from(id)),
                            ("sweep", Json::from(sweep)),
                            ("jobs", Json::from(product.job_count())),
                        ]),
                    );
                    let writer = &writer;
                    scope.spawn(move || run_sweep(sweep, product, pool, &state, writer));
                }
                Ok(Request::Status { id, sweep }) => match sweeps.get(&sweep) {
                    Some(state) => send(&writer, &status_json(id, sweep, state)),
                    None => send(&writer, &unknown_sweep(id, sweep)),
                },
                Ok(Request::Cancel { id, sweep }) => match sweeps.get(&sweep) {
                    Some(state) => {
                        state.cancel.store(true, Ordering::SeqCst);
                        send(
                            &writer,
                            &Json::obj([
                                ("type", Json::from("cancel_ok")),
                                ("id", Json::from(id)),
                                ("sweep", Json::from(sweep)),
                            ]),
                        );
                    }
                    None => send(&writer, &unknown_sweep(id, sweep)),
                },
                Ok(Request::Results { id, sweep }) => match sweeps.get(&sweep) {
                    None => send(&writer, &unknown_sweep(id, sweep)),
                    Some(state) => {
                        let summary = state.summary.lock().expect("sweep summary poisoned");
                        match summary.as_ref() {
                            Some(summary) => send(
                                &writer,
                                &Json::obj([
                                    ("type", Json::from("results_ok")),
                                    ("id", Json::from(id)),
                                    ("sweep", Json::from(sweep)),
                                    ("summary", summary.clone()),
                                ]),
                            ),
                            None => send(
                                &writer,
                                &RequestError {
                                    code: "bad_request",
                                    text: format!("sweep {sweep} has not finished"),
                                    id: Some(id),
                                }
                                .to_response(),
                            ),
                        }
                    }
                },
            }
        }
        // Scope exit joins every runner: EOF drains in-flight sweeps.
    });
}

/// The `error` line for a handle the server never issued.
fn unknown_sweep(id: u64, sweep: u64) -> Json {
    RequestError {
        code: "bad_request",
        text: format!("unknown sweep handle {sweep}"),
        id: Some(id),
    }
    .to_response()
}

#[cfg(test)]
mod tests {
    use super::*;
    use broadcast::{Algo, TopologySpec, Workload};

    #[test]
    fn a_panicked_job_is_answered_job_panicked() {
        let state = SweepState::new(4);
        let writer = Mutex::new(Vec::new());
        let observer = StreamObserver { sweep: 3, state: &state, writer: &writer };
        let scenario = Scenario::new(
            TopologySpec::Path { n: 4 },
            Workload::Baseline(Algo::Decay { payload: 1 }),
        );
        observer.failed(SweepJob { scenario: 1, order: 2, seed: 7 }, &scenario, "it \"broke\"");
        let line = String::from_utf8(writer.into_inner().expect("writer poisoned")).expect("UTF-8");
        assert_eq!(
            line,
            r#"{"type":"error","code":"job_panicked","sweep":3,"scenario":1,"order":2,"seed":7,"text":"it \"broke\""}"#
                .to_string()
                + "\n"
        );
        assert_eq!(state.completed.load(Ordering::SeqCst), 0, "a failed job is not completed");
    }
}
