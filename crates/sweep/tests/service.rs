//! End-to-end tests of the line-oriented scenario server: the happy-path
//! submit → stream → summary round trip, and the edge cases the wire
//! contract promises — malformed lines produce typed errors without
//! killing the loop, cancellation drains cleanly, and concurrent sweeps
//! interleave under correct handles.

use mini_json::Json;
use std::io::{BufReader, Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;
use sweep::SweepPool;

// --- a duplex harness: the test drives the server line by line -----------

/// Feeds the server lines sent over a channel; EOF when the sender drops.
struct ChanReader {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChanReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.buf = line.into_bytes();
                    self.buf.push(b'\n');
                    self.pos = 0;
                }
                Err(_) => return Ok(0), // sender dropped: EOF
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Forwards each complete response line back to the test over a channel.
struct ChanWriter {
    tx: Sender<String>,
    pending: Vec<u8>,
}

impl Write for ChanWriter {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(bytes);
        while let Some(nl) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=nl).collect();
            let line =
                String::from_utf8(line[..line.len() - 1].to_vec()).expect("server wrote non-UTF-8");
            let _ = self.tx.send(line);
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A served session: send request lines with [`Session::send`], read tagged
/// response lines with [`Session::recv`]; dropping the request sender ends
/// intake and drains the server.
struct Session {
    requests: Option<Sender<String>>,
    responses: Receiver<String>,
    server: Option<std::thread::JoinHandle<()>>,
}

impl Session {
    fn start(pool: SweepPool) -> Session {
        let (req_tx, req_rx) = channel::<String>();
        let (resp_tx, resp_rx) = channel::<String>();
        let server = std::thread::spawn(move || {
            let reader = BufReader::new(ChanReader { rx: req_rx, buf: Vec::new(), pos: 0 });
            let writer = ChanWriter { tx: resp_tx, pending: Vec::new() };
            sweep::serve(reader, writer, pool);
        });
        Session { requests: Some(req_tx), responses: resp_rx, server: Some(server) }
    }

    fn send(&self, line: &str) {
        self.requests.as_ref().expect("session closed").send(line.to_string()).unwrap();
    }

    fn recv(&self) -> Json {
        let line =
            self.responses.recv_timeout(Duration::from_secs(120)).expect("server went silent");
        Json::parse(&line).unwrap_or_else(|e| panic!("unparseable response {line:?}: {e}"))
    }

    /// Receives until a response of `kind` arrives, returning it and the
    /// others seen on the way (a sweep may stream outcomes in between).
    fn recv_until(&self, kind: &str) -> (Json, Vec<Json>) {
        let mut skipped = Vec::new();
        loop {
            let resp = self.recv();
            if resp.get("type").and_then(Json::as_str) == Some(kind) {
                return (resp, skipped);
            }
            skipped.push(resp);
        }
    }

    /// Ends intake (EOF) and joins the server, returning every remaining
    /// response line.
    fn finish(mut self) -> Vec<Json> {
        drop(self.requests.take());
        self.server.take().expect("already finished").join().expect("server panicked");
        let mut rest = Vec::new();
        while let Ok(line) = self.responses.try_recv() {
            rest.push(Json::parse(&line).expect("unparseable response"));
        }
        rest
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        drop(self.requests.take());
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}

fn kind(resp: &Json) -> &str {
    resp.get("type").and_then(Json::as_str).unwrap_or("<untyped>")
}

const TINY_SUBMIT: &str = r#"{"type":"submit_sweep","id":42,"scenario":{"topology":{"kind":"path","n":8},"workload":{"kind":"decay","payload":7}},"seed_range":{"start":0,"end":6}}"#;

// --- the tests ------------------------------------------------------------

/// The full happy path: submit_ok (with the handle) precedes the stream,
/// one outcome line per job arrives, and sweep_done carries a summary whose
/// aggregates equal the serial sweep's.
#[test]
fn submit_streams_outcomes_and_a_matching_summary() {
    let session = Session::start(SweepPool::new().workers(2));
    session.send(TINY_SUBMIT);
    let first = session.recv();
    assert_eq!(kind(&first), "submit_ok");
    assert_eq!(first.get("id").and_then(Json::as_u64), Some(42));
    assert_eq!(first.get("jobs").and_then(Json::as_u64), Some(6));
    let sweep = first.get("sweep").and_then(Json::as_u64).expect("no handle");

    let (done, outcomes) = session.recv_until("sweep_done");
    assert_eq!(outcomes.len(), 6);
    let mut orders: Vec<u64> = outcomes
        .iter()
        .map(|o| {
            assert_eq!(kind(o), "outcome");
            assert_eq!(o.get("sweep").and_then(Json::as_u64), Some(sweep));
            assert_eq!(o.get("label").and_then(Json::as_str), Some("path(8)/decay"));
            o.get("order").and_then(Json::as_u64).expect("outcome without order")
        })
        .collect();
    orders.sort_unstable();
    assert_eq!(orders, (0..6).collect::<Vec<_>>());

    assert_eq!(done.get("cancelled").and_then(Json::as_bool), Some(false));
    assert_eq!(done.get("completed").and_then(Json::as_u64), Some(6));

    // The streamed summary's aggregates are the serial sweep's.
    let serial = broadcast::Scenario::new(
        broadcast::TopologySpec::Path { n: 8 },
        broadcast::Workload::Baseline(broadcast::Algo::Decay { payload: 7 }),
    )
    .seeds(0..6);
    let digest = &done.get("summary").and_then(Json::as_arr).expect("no summary")[0];
    assert_eq!(digest.get("label").and_then(Json::as_str), Some("path(8)/decay"));
    assert_eq!(digest.get("runs").and_then(Json::as_u64), Some(6));
    assert_eq!(digest.get("worst_rounds").and_then(Json::as_u64), serial.worst_rounds());
    assert_eq!(digest.get("best_rounds").and_then(Json::as_u64), serial.best_rounds());
    assert_eq!(digest.get("mean_rounds").and_then(Json::as_f64), serial.mean_rounds());
}

/// A malformed line produces a typed `malformed_json` error and the loop
/// keeps serving: the very next request round-trips normally.
#[test]
fn malformed_json_is_survivable() {
    let session = Session::start(SweepPool::new().workers(1));
    session.send("{this is not json");
    let err = session.recv();
    assert_eq!(kind(&err), "error");
    assert_eq!(err.get("code").and_then(Json::as_str), Some("malformed_json"));

    session.send(TINY_SUBMIT);
    let ok = session.recv();
    assert_eq!(kind(&ok), "submit_ok");
    let (done, _) = session.recv_until("sweep_done");
    assert_eq!(done.get("completed").and_then(Json::as_u64), Some(6));
}

/// Semantic errors are typed too, echo the request id, and never kill the
/// loop: unknown request types, unknown sweep handles, unsupported
/// workloads.
#[test]
fn bad_requests_are_typed_and_survivable() {
    let session = Session::start(SweepPool::new().workers(1));
    session.send(r#"{"type":"warp","id":5}"#);
    let err = session.recv();
    assert_eq!(kind(&err), "error");
    assert_eq!(err.get("code").and_then(Json::as_str), Some("bad_request"));
    assert_eq!(err.get("id").and_then(Json::as_u64), Some(5));

    session.send(r#"{"type":"status","id":6,"sweep":999}"#);
    let err = session.recv();
    assert_eq!(err.get("code").and_then(Json::as_str), Some("bad_request"));
    assert_eq!(err.get("id").and_then(Json::as_u64), Some(6));

    session.send(
        r#"{"type":"submit_sweep","id":7,"scenario":{"topology":{"kind":"path","n":4},"workload":{"kind":"multi_known"}},"seeds":[0]}"#,
    );
    let err = session.recv();
    assert_eq!(err.get("code").and_then(Json::as_str), Some("unsupported"));

    // Well-formed scenarios that cannot run would panic a worker (or the
    // parser) if accepted: a source outside the topology, an empty
    // topology, churn or mobility on a streamed topology, a jammer outside
    // the topology, an edge probability outside [0, 1], a non-positive
    // radius, and messages that do not fit their bit width.
    let single = r#""workload":{"kind":"single","payload":7}"#;
    let path5 = r#""topology":{"kind":"path","n":5}"#;
    let grid = r#""topology":{"kind":"streamed_grid","w":4,"h":4}"#;
    let scenarios = [
        format!(r#"{path5},{single},"source":99"#),
        format!(r#""topology":{{"kind":"path","n":0}},{single}"#),
        format!(
            r#"{grid},{single},"faults":{{"churn":{{"period":4,"node_p":0.05,"edge_p":0.05}}}}"#
        ),
        format!(r#"{grid},{single},"faults":{{"mobility":{{"radius":0.4,"epoch":16}}}}"#),
        format!(r#"{path5},{single},"faults":{{"jammers":[{{"node":99,"period":2}}]}}"#),
        format!(r#""topology":{{"kind":"gnp","n":10,"p":1.5,"graph_seed":1}},{single}"#),
        format!(r#""topology":{{"kind":"gnp","n":10,"p":-0.5,"graph_seed":1}},{single}"#),
        format!(r#""topology":{{"kind":"streamed_gnp","n":10,"p":1.5,"graph_seed":1}},{single}"#),
        format!(
            r#""topology":{{"kind":"unit_disk","n":10,"radius":-0.5,"graph_seed":1}},{single}"#
        ),
        format!(
            r#""topology":{{"kind":"streamed_unit_disk","n":10,"radius":-0.5,"graph_seed":1}},{single}"#
        ),
        format!(r#"{path5},"workload":{{"kind":"multi_unknown","messages":[1,2],"bits":0}}"#),
    ];
    for (id, scenario) in (10u64..).zip(&scenarios) {
        session.send(&format!(
            r#"{{"type":"submit_sweep","id":{id},"scenario":{{{scenario}}},"seeds":[1]}}"#
        ));
        let err = session.recv();
        assert_eq!(kind(&err), "error", "accepted: {scenario}");
        assert_eq!(err.get("code").and_then(Json::as_str), Some("bad_request"), "{scenario}");
        assert_eq!(err.get("id").and_then(Json::as_u64), Some(id));
    }

    session.send(TINY_SUBMIT);
    assert_eq!(kind(&session.recv()), "submit_ok");
    session.recv_until("sweep_done");
}

/// Cancelling a running sweep drains it cleanly: cancel_ok answers, the
/// stream stops early, and sweep_done reports `cancelled: true` with
/// exactly as many completions as outcome lines were streamed.
#[test]
fn cancel_mid_sweep_drains_cleanly() {
    let session = Session::start(SweepPool::new().workers(2));
    // 500 corridor jobs: long enough that the cancel (sent after the second
    // outcome line) always lands mid-flight.
    session.send(
        r#"{"type":"submit_sweep","id":1,"scenario":{"topology":{"kind":"cluster_chain","clusters":20,"size":6},"workload":{"kind":"single","payload":9}},"seed_range":{"start":0,"end":500}}"#,
    );
    let first = session.recv();
    assert_eq!(kind(&first), "submit_ok");
    let sweep = first.get("sweep").and_then(Json::as_u64).unwrap();
    let mut streamed = 0u64;
    while streamed < 2 {
        let resp = session.recv();
        assert_eq!(kind(&resp), "outcome");
        streamed += 1;
    }
    session.send(&format!(r#"{{"type":"cancel","id":2,"sweep":{sweep}}}"#));
    let (cancel_ok, outcomes_meanwhile) = session.recv_until("cancel_ok");
    assert_eq!(cancel_ok.get("id").and_then(Json::as_u64), Some(2));
    streamed += outcomes_meanwhile.len() as u64;

    let (done, late_outcomes) = session.recv_until("sweep_done");
    streamed += late_outcomes.len() as u64;
    assert_eq!(done.get("cancelled").and_then(Json::as_bool), Some(true));
    let completed = done.get("completed").and_then(Json::as_u64).unwrap();
    assert_eq!(completed, streamed, "every completed job must have streamed");
    assert!(completed < 500, "cancellation never took effect");

    // After the drain, status reports the sweep done-and-cancelled, and
    // results returns the partial summary.
    session.send(&format!(r#"{{"type":"status","id":3,"sweep":{sweep}}}"#));
    let status = session.recv();
    assert_eq!(kind(&status), "status_ok");
    assert_eq!(status.get("done").and_then(Json::as_bool), Some(true));
    assert_eq!(status.get("cancelled").and_then(Json::as_bool), Some(true));
    assert_eq!(status.get("completed").and_then(Json::as_u64), Some(completed));

    session.send(&format!(r#"{{"type":"results","id":4,"sweep":{sweep}}}"#));
    let results = session.recv();
    assert_eq!(kind(&results), "results_ok");
    let digest = &results.get("summary").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(digest.get("runs").and_then(Json::as_u64), Some(completed));
}

/// Mid-flight, `status` answers with live progress and `results` is a typed
/// not-finished error.
#[test]
fn status_and_results_answer_mid_flight() {
    let session = Session::start(SweepPool::new().workers(2));
    session.send(
        r#"{"type":"submit_sweep","id":1,"scenario":{"topology":{"kind":"cluster_chain","clusters":20,"size":6},"workload":{"kind":"single","payload":9}},"seed_range":{"start":0,"end":500}}"#,
    );
    let first = session.recv();
    let sweep = first.get("sweep").and_then(Json::as_u64).unwrap();
    assert_eq!(kind(&session.recv()), "outcome"); // the sweep is in flight

    session.send(&format!(r#"{{"type":"status","id":2,"sweep":{sweep}}}"#));
    let (status, _) = session.recv_until("status_ok");
    assert_eq!(status.get("done").and_then(Json::as_bool), Some(false));
    assert_eq!(status.get("total").and_then(Json::as_u64), Some(500));

    session.send(&format!(r#"{{"type":"results","id":3,"sweep":{sweep}}}"#));
    let (err, _) = session.recv_until("error");
    assert_eq!(err.get("code").and_then(Json::as_str), Some("bad_request"));
    assert_eq!(err.get("id").and_then(Json::as_u64), Some(3));

    session.send(&format!(r#"{{"type":"cancel","id":4,"sweep":{sweep}}}"#));
    session.recv_until("sweep_done");
}

/// Two sweeps submitted back to back run concurrently: their outcome lines
/// may interleave but every line is tagged with its sweep handle, both
/// handles are distinct, and each stream completes exactly its own jobs.
#[test]
fn concurrent_sweeps_interleave_under_correct_handles() {
    let session = Session::start(SweepPool::new().workers(2));
    session.send(
        r#"{"type":"submit_sweep","id":100,"scenario":{"topology":{"kind":"path","n":8},"workload":{"kind":"decay","payload":1}},"seed_range":{"start":0,"end":20}}"#,
    );
    session.send(
        r#"{"type":"submit_sweep","id":200,"scenario":{"topology":{"kind":"star","n":9},"workload":{"kind":"decay","payload":2}},"seed_range":{"start":0,"end":30}}"#,
    );
    let mut responses = session.finish();
    // Both submit_oks arrive (in request order — the loop acks before
    // spawning), with distinct handles, echoing their request ids.
    let submit_oks: Vec<&Json> = responses.iter().filter(|r| kind(r) == "submit_ok").collect();
    assert_eq!(submit_oks.len(), 2);
    assert_eq!(submit_oks[0].get("id").and_then(Json::as_u64), Some(100));
    assert_eq!(submit_oks[1].get("id").and_then(Json::as_u64), Some(200));
    let first = submit_oks[0].get("sweep").and_then(Json::as_u64).unwrap();
    let second = submit_oks[1].get("sweep").and_then(Json::as_u64).unwrap();
    assert_ne!(first, second);

    // Every outcome line is tagged; per-handle counts and labels are exact.
    let count = |sweep: u64, label: &str| {
        responses
            .iter()
            .filter(|r| kind(r) == "outcome")
            .filter(|r| r.get("sweep").and_then(Json::as_u64) == Some(sweep))
            .inspect(|r| assert_eq!(r.get("label").and_then(Json::as_str), Some(label)))
            .count()
    };
    assert_eq!(count(first, "path(8)/decay"), 20);
    assert_eq!(count(second, "star(9)/decay"), 30);

    // Both sweeps drained to their sweep_done on EOF.
    responses.retain(|r| kind(r) == "sweep_done");
    assert_eq!(responses.len(), 2);
    for done in &responses {
        assert_eq!(done.get("cancelled").and_then(Json::as_bool), Some(false));
    }
}
