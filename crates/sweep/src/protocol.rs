//! The line-oriented JSON wire protocol of the scenario server.
//!
//! One request per line, one tagged JSON object per response line — the
//! maelstrom/`telephone_line` shape, minus node routing (this server *is*
//! the single node). Requests:
//!
//! | `type` | fields | effect |
//! |---|---|---|
//! | `submit_sweep` | `id`, `scenario` or `scenarios`, `seeds` or `seed_range` | start a sweep; streams `outcome` lines, ends with `sweep_done` |
//! | `status` | `id`, `sweep` | one `status_ok` snapshot |
//! | `cancel` | `id`, `sweep` | drain the sweep cleanly; `cancel_ok` |
//! | `results` | `id`, `sweep` | re-fetch a finished sweep's summary |
//!
//! A scenario object mirrors the [`broadcast::Scenario`] builder:
//!
//! ```json
//! {"topology": {"kind": "cluster_chain", "clusters": 20, "size": 6},
//!  "workload": {"kind": "single", "payload": 57005},
//!  "faults": {"erasure": 0.1},
//!  "round_cap": 100000, "fec_repair": 2, "source": 0}
//! ```
//!
//! Unknown request types, missing fields and out-of-range values produce a
//! typed `error` response (`code`: `malformed_json` | `bad_request` |
//! `unsupported`) and the loop keeps serving — a wire client can never kill
//! the server with a bad line. Errors echo the request `id` whenever the
//! line parsed far enough to have one.

use crate::executor::SweepProduct;
use broadcast::{Algo, BatchMode, Scenario, TopologySpec, Workload};
use mini_json::Json;
use radio_sim::{CollisionMode, FaultPlan, NodeId};
use rlnc::gf2::BitVec;

/// A parsed request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// `submit_sweep`: run `product`, streaming outcomes.
    SubmitSweep {
        /// Client-chosen request id, echoed in `submit_ok`.
        id: u64,
        /// The scenarios × seeds to run.
        product: SweepProduct,
    },
    /// `status`: snapshot a sweep's progress.
    Status {
        /// Client-chosen request id.
        id: u64,
        /// Server-assigned sweep handle (from `submit_ok`).
        sweep: u64,
    },
    /// `cancel`: drain a sweep cleanly.
    Cancel {
        /// Client-chosen request id.
        id: u64,
        /// Server-assigned sweep handle.
        sweep: u64,
    },
    /// `results`: re-fetch the final summary of a finished sweep.
    Results {
        /// Client-chosen request id.
        id: u64,
        /// Server-assigned sweep handle.
        sweep: u64,
    },
}

/// A request that could not be served, with the wire error code the
/// response line carries.
#[derive(Clone, Debug)]
pub struct RequestError {
    /// Wire error code: `malformed_json`, `bad_request` or `unsupported`.
    pub code: &'static str,
    /// Human-readable detail.
    pub text: String,
    /// The request id, when the line parsed far enough to have one.
    pub id: Option<u64>,
}

impl RequestError {
    fn bad(id: Option<u64>, text: impl Into<String>) -> Self {
        RequestError { code: "bad_request", text: text.into(), id }
    }

    fn unsupported(id: Option<u64>, text: impl Into<String>) -> Self {
        RequestError { code: "unsupported", text: text.into(), id }
    }

    /// Encodes the error as its wire response line.
    pub fn to_response(&self) -> Json {
        let mut pairs = vec![("type", Json::from("error"))];
        if let Some(id) = self.id {
            pairs.push(("id", Json::from(id)));
        }
        pairs.push(("code", Json::from(self.code)));
        pairs.push(("text", Json::from(self.text.clone())));
        Json::obj(pairs)
    }
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let value = Json::parse(line).map_err(|e| RequestError {
        code: "malformed_json",
        text: e.to_string(),
        id: None,
    })?;
    let id = value.get("id").and_then(Json::as_u64);
    let kind = value
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| RequestError::bad(id, "missing string field 'type'"))?;
    let id = id.ok_or_else(|| RequestError::bad(None, "missing u64 field 'id'"))?;
    match kind {
        "submit_sweep" => {
            let product = parse_product(&value, id)?;
            Ok(Request::SubmitSweep { id, product })
        }
        "status" | "cancel" | "results" => {
            let sweep = value
                .get("sweep")
                .and_then(Json::as_u64)
                .ok_or_else(|| RequestError::bad(Some(id), "missing u64 field 'sweep'"))?;
            Ok(match kind {
                "status" => Request::Status { id, sweep },
                "cancel" => Request::Cancel { id, sweep },
                _ => Request::Results { id, sweep },
            })
        }
        other => Err(RequestError::bad(Some(id), format!("unknown request type '{other}'"))),
    }
}

/// Decodes the scenarios × seeds of a `submit_sweep`.
fn parse_product(value: &Json, id: u64) -> Result<SweepProduct, RequestError> {
    let mut scenarios = Vec::new();
    match (value.get("scenario"), value.get("scenarios")) {
        (Some(one), None) => scenarios.push(parse_scenario(one, id)?),
        (None, Some(many)) => {
            let items = many
                .as_arr()
                .ok_or_else(|| RequestError::bad(Some(id), "'scenarios' must be an array"))?;
            for item in items {
                scenarios.push(parse_scenario(item, id)?);
            }
        }
        _ => {
            return Err(RequestError::bad(
                Some(id),
                "provide exactly one of 'scenario' or 'scenarios'",
            ))
        }
    }
    if scenarios.is_empty() {
        return Err(RequestError::bad(Some(id), "'scenarios' must not be empty"));
    }
    let seeds = parse_seeds(value, id)?;
    if seeds.is_empty() {
        return Err(RequestError::bad(Some(id), "the seed sequence must not be empty"));
    }
    Ok(SweepProduct::new().scenarios(scenarios).seeds(seeds))
}

/// Decodes `"seeds": [..]` (explicit list — the shape
/// `Scenario::seeds(impl IntoIterator)` exists for) or
/// `"seed_range": {"start": a, "end": b}` (half-open).
fn parse_seeds(value: &Json, id: u64) -> Result<Vec<u64>, RequestError> {
    match (value.get("seeds"), value.get("seed_range")) {
        (Some(list), None) => {
            let items = list
                .as_arr()
                .ok_or_else(|| RequestError::bad(Some(id), "'seeds' must be an array"))?;
            items
                .iter()
                .map(|s| {
                    s.as_u64()
                        .ok_or_else(|| RequestError::bad(Some(id), "'seeds' entries must be u64"))
                })
                .collect()
        }
        (None, Some(range)) => {
            let get = |key: &str| {
                range.get(key).and_then(Json::as_u64).ok_or_else(|| {
                    RequestError::bad(Some(id), format!("'seed_range.{key}' must be u64"))
                })
            };
            let (start, end) = (get("start")?, get("end")?);
            if end < start {
                return Err(RequestError::bad(Some(id), "'seed_range' end < start"));
            }
            if end - start > 1_000_000 {
                return Err(RequestError::bad(Some(id), "'seed_range' wider than 1e6 seeds"));
            }
            Ok((start..end).collect())
        }
        _ => Err(RequestError::bad(Some(id), "provide exactly one of 'seeds' or 'seed_range'")),
    }
}

/// Decodes one scenario object into a [`Scenario`] via the facade builder.
fn parse_scenario(value: &Json, id: u64) -> Result<Scenario, RequestError> {
    let topology = parse_topology(
        value.get("topology").ok_or_else(|| RequestError::bad(Some(id), "missing 'topology'"))?,
        id,
    )?;
    let workload = parse_workload(
        value.get("workload").ok_or_else(|| RequestError::bad(Some(id), "missing 'workload'"))?,
        id,
    )?;
    let source = match value.get("source") {
        Some(s) => s.as_u64().ok_or_else(|| RequestError::bad(Some(id), "'source' must be u64"))?,
        None => 0,
    };
    let source = u32::try_from(source)
        .map_err(|_| RequestError::bad(Some(id), "'source' must fit in u32"))?;
    let mut scenario = Scenario::new(topology, workload).source(NodeId::new(source as usize));
    if let Some(cap) = value.get("round_cap") {
        let cap =
            cap.as_u64().ok_or_else(|| RequestError::bad(Some(id), "'round_cap' must be u64"))?;
        scenario = scenario.round_cap(cap);
    }
    if let Some(r) = value.get("fec_repair") {
        let r = r
            .as_u64()
            .and_then(|r| u32::try_from(r).ok())
            .ok_or_else(|| RequestError::bad(Some(id), "'fec_repair' must fit in u32"))?;
        scenario = scenario.fec_repair(r);
    }
    if let Some(mode) = value.get("collision_mode") {
        scenario = scenario.collision_mode(match mode.as_str() {
            Some("detection") => CollisionMode::Detection,
            Some("no_detection") => CollisionMode::NoDetection,
            _ => {
                return Err(RequestError::bad(
                    Some(id),
                    "'collision_mode' must be 'detection' or 'no_detection'",
                ))
            }
        });
    }
    if let Some(faults) = value.get("faults") {
        scenario = scenario.faults(parse_faults(faults, id)?);
    }
    // A scenario that cannot run would panic a worker mid-sweep; reject it
    // while the line is still a request.
    scenario.validate().map_err(|reason| RequestError::bad(Some(id), reason))?;
    Ok(scenario)
}

/// Decodes the topology spec. Every declarative family the facade offers is
/// reachable over the wire; only `custom` (a pre-built in-memory graph) is
/// inherently not.
fn parse_topology(value: &Json, id: u64) -> Result<TopologySpec, RequestError> {
    let kind = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| RequestError::bad(Some(id), "topology needs a string 'kind'"))?;
    let need = |key: &str| {
        value.get(key).and_then(Json::as_u64).map(|v| v as usize).ok_or_else(|| {
            RequestError::bad(Some(id), format!("topology '{kind}' needs u64 '{key}'"))
        })
    };
    let need_f = |key: &str| {
        value.get(key).and_then(Json::as_f64).ok_or_else(|| {
            RequestError::bad(Some(id), format!("topology '{kind}' needs number '{key}'"))
        })
    };
    let need_seed = |key: &str| {
        value.get(key).and_then(Json::as_u64).ok_or_else(|| {
            RequestError::bad(Some(id), format!("topology '{kind}' needs u64 '{key}'"))
        })
    };
    Ok(match kind {
        "path" => TopologySpec::Path { n: need("n")? },
        "grid" => TopologySpec::Grid { w: need("w")?, h: need("h")? },
        "star" => TopologySpec::Star { n: need("n")? },
        "cluster_chain" => {
            TopologySpec::ClusterChain { clusters: need("clusters")?, size: need("size")? }
        }
        "binary_tree" => TopologySpec::BinaryTree { n: need("n")? },
        "unit_disk" => TopologySpec::UnitDisk {
            n: need("n")?,
            radius: need_f("radius")?,
            graph_seed: need_seed("graph_seed")?,
        },
        "gnp" => TopologySpec::Gnp {
            n: need("n")?,
            p: need_f("p")?,
            graph_seed: need_seed("graph_seed")?,
        },
        "streamed_grid" => TopologySpec::StreamedGrid { w: need("w")?, h: need("h")? },
        "streamed_unit_disk" => TopologySpec::StreamedUnitDisk {
            n: need("n")?,
            radius: need_f("radius")?,
            graph_seed: need_seed("graph_seed")?,
        },
        "streamed_gnp" => TopologySpec::StreamedGnp {
            n: need("n")?,
            p: need_f("p")?,
            graph_seed: need_seed("graph_seed")?,
        },
        other => {
            return Err(RequestError::unsupported(
                Some(id),
                format!("topology kind '{other}' is not servable"),
            ))
        }
    })
}

/// Decodes the workload. `multi_known` is deliberately not servable: its
/// GST is built centrally from global topology knowledge, which a serving
/// front-end should not pretend to have.
fn parse_workload(value: &Json, id: u64) -> Result<Workload, RequestError> {
    let kind = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| RequestError::bad(Some(id), "workload needs a string 'kind'"))?;
    let payload = || {
        value.get("payload").and_then(Json::as_u64).ok_or_else(|| {
            RequestError::bad(Some(id), format!("workload '{kind}' needs u64 'payload'"))
        })
    };
    Ok(match kind {
        "single" => Workload::Single { payload: payload()? },
        "decay" => Workload::Baseline(Algo::Decay { payload: payload()? }),
        "mmv_decay" => {
            let noise = match value.get("noise") {
                None => false,
                Some(n) => n
                    .as_bool()
                    .ok_or_else(|| RequestError::bad(Some(id), "'noise' must be a bool"))?,
            };
            Workload::Baseline(Algo::MmvDecay { payload: payload()?, noise })
        }
        "multi_unknown" => {
            let bits = match value.get("bits") {
                None => 32,
                Some(b) => b.as_u64().filter(|b| (1..=64).contains(b)).ok_or_else(|| {
                    RequestError::bad(Some(id), "'bits' must be an integer in 1..=64")
                })?,
            };
            let messages = value
                .get("messages")
                .and_then(Json::as_arr)
                .ok_or_else(|| {
                    RequestError::bad(Some(id), "'multi_unknown' needs a 'messages' array")
                })?
                .iter()
                .map(|m| {
                    m.as_u64()
                        .filter(|v| bits == 64 || v >> bits == 0)
                        .map(|v| BitVec::from_u64(v, bits as usize))
                        .ok_or_else(|| {
                            RequestError::bad(
                                Some(id),
                                format!("'messages' entries must be u64 values of {bits} bits"),
                            )
                        })
                })
                .collect::<Result<Vec<_>, _>>()?;
            let batch = match value.get("batch") {
                None => BatchMode::FullK,
                Some(b) if b.as_str() == Some("full_k") => BatchMode::FullK,
                Some(b) => match b.get("generations").and_then(Json::as_u64) {
                    Some(g) if g > 0 => BatchMode::Generations(g as usize),
                    _ => {
                        return Err(RequestError::bad(
                            Some(id),
                            "'batch' must be \"full_k\" or {\"generations\": g>0}",
                        ))
                    }
                },
            };
            Workload::MultiUnknown { messages, batch }
        }
        "multi_known" => {
            return Err(RequestError::unsupported(
                Some(id),
                "workload 'multi_known' builds its GST from global topology \
                 knowledge and is not servable; run it through the Scenario \
                 facade directly",
            ))
        }
        other => {
            return Err(RequestError::unsupported(
                Some(id),
                format!("workload kind '{other}' is not servable"),
            ))
        }
    })
}

/// Decodes a fault-plan object onto [`FaultPlan`]'s builders.
fn parse_faults(value: &Json, id: u64) -> Result<FaultPlan, RequestError> {
    let mut plan = FaultPlan::none();
    if let Some(p) = value.get("erasure") {
        let p = p
            .as_f64()
            .filter(|p| (0.0..=1.0).contains(p))
            .ok_or_else(|| RequestError::bad(Some(id), "'erasure' must be in [0, 1]"))?;
        plan = plan.with_erasure(p);
    }
    if let Some(jammers) = value.get("jammers") {
        let items = jammers
            .as_arr()
            .ok_or_else(|| RequestError::bad(Some(id), "'jammers' must be an array"))?;
        for j in items {
            let get = |key: &str| {
                j.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| RequestError::bad(Some(id), format!("jammer needs u64 '{key}'")))
            };
            let (node, period) = (get("node")?, get("period")?);
            let offset = if j.get("offset").is_some() { get("offset")? } else { 0 };
            if period == 0 {
                return Err(RequestError::bad(Some(id), "jammer 'period' must be > 0"));
            }
            if offset >= period {
                return Err(RequestError::bad(Some(id), "jammer 'offset' must be < 'period'"));
            }
            let node = u32::try_from(node)
                .map_err(|_| RequestError::bad(Some(id), "jammer 'node' must fit in u32"))?;
            plan = plan.with_jammer(node, period, offset);
        }
    }
    if let Some(churn) = value.get("churn") {
        let period = churn
            .get("period")
            .and_then(Json::as_u64)
            .filter(|p| *p > 0)
            .ok_or_else(|| RequestError::bad(Some(id), "'churn.period' must be u64 > 0"))?;
        let prob = |key: &str| {
            churn.get(key).and_then(Json::as_f64).filter(|p| (0.0..=1.0).contains(p)).ok_or_else(
                || RequestError::bad(Some(id), format!("'churn.{key}' must be in [0, 1]")),
            )
        };
        plan = plan.with_churn(period, prob("node_p")?, prob("edge_p")?);
    }
    if let Some(mobility) = value.get("mobility") {
        let radius = mobility
            .get("radius")
            .and_then(Json::as_f64)
            .filter(|r| *r > 0.0)
            .ok_or_else(|| RequestError::bad(Some(id), "'mobility.radius' must be > 0"))?;
        let epoch = mobility
            .get("epoch")
            .and_then(Json::as_u64)
            .filter(|e| *e > 0)
            .ok_or_else(|| RequestError::bad(Some(id), "'mobility.epoch' must be u64 > 0"))?;
        plan = plan.with_mobility(radius, epoch);
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_submit() {
        let line = r#"{"type":"submit_sweep","id":7,
            "scenario":{"topology":{"kind":"cluster_chain","clusters":20,"size":6},
                        "workload":{"kind":"single","payload":41813},
                        "faults":{"erasure":0.1}},
            "seed_range":{"start":0,"end":8}}"#
            .replace('\n', " ");
        let Request::SubmitSweep { id, product } = parse_request(&line).unwrap() else {
            panic!("wrong request kind");
        };
        assert_eq!(id, 7);
        assert_eq!(product.seed_list(), (0..8).collect::<Vec<_>>());
        assert_eq!(product.scenario_list()[0].label(), "cluster_chain(20x6)/single+erase(0.1)");
    }

    #[test]
    fn parses_explicit_seed_lists_and_scenario_arrays() {
        let line = r#"{"type":"submit_sweep","id":1,
            "scenarios":[
              {"topology":{"kind":"path","n":8},"workload":{"kind":"decay","payload":1}},
              {"topology":{"kind":"grid","w":3,"h":3},
               "workload":{"kind":"multi_unknown","messages":[1,2],"batch":{"generations":2}}}],
            "seeds":[5,3,5]}"#
            .replace('\n', " ");
        let Request::SubmitSweep { product, .. } = parse_request(&line).unwrap() else {
            panic!("wrong request kind");
        };
        assert_eq!(product.scenario_list().len(), 2);
        assert_eq!(product.seed_list(), [5, 3, 5]);
        assert_eq!(product.job_count(), 6);
    }

    #[test]
    fn malformed_json_is_typed() {
        let err = parse_request("{not json").unwrap_err();
        assert_eq!(err.code, "malformed_json");
        assert!(err.to_response().to_string().contains("\"code\":\"malformed_json\""));
    }

    #[test]
    fn bad_requests_echo_the_id() {
        let err = parse_request(r#"{"type":"status","id":9}"#).unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert_eq!(err.id, Some(9));
        let err = parse_request(r#"{"type":"warp","id":3}"#).unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert_eq!(err.id, Some(3));
    }

    #[test]
    fn multi_known_is_rejected_as_unsupported() {
        let line = r#"{"type":"submit_sweep","id":2,
            "scenario":{"topology":{"kind":"path","n":4},
                        "workload":{"kind":"multi_known"}},
            "seeds":[0]}"#
            .replace('\n', " ");
        let err = parse_request(&line).unwrap_err();
        assert_eq!(err.code, "unsupported");
    }

    #[test]
    fn control_requests_parse() {
        assert!(matches!(
            parse_request(r#"{"type":"status","id":1,"sweep":4}"#).unwrap(),
            Request::Status { id: 1, sweep: 4 }
        ));
        assert!(matches!(
            parse_request(r#"{"type":"cancel","id":2,"sweep":4}"#).unwrap(),
            Request::Cancel { id: 2, sweep: 4 }
        ));
        assert!(matches!(
            parse_request(r#"{"type":"results","id":3,"sweep":4}"#).unwrap(),
            Request::Results { id: 3, sweep: 4 }
        ));
    }

    #[test]
    fn fault_plan_fields_decode() {
        let line = r#"{"type":"submit_sweep","id":1,
            "scenario":{"topology":{"kind":"grid","w":4,"h":4},
                        "workload":{"kind":"single","payload":1},
                        "faults":{"erasure":0.2,
                                  "jammers":[{"node":3,"period":2,"offset":1}],
                                  "churn":{"period":8,"node_p":0.01,"edge_p":0.02},
                                  "mobility":{"radius":0.4,"epoch":16}}},
            "seeds":[1]}"#
            .replace('\n', " ");
        let Request::SubmitSweep { product, .. } = parse_request(&line).unwrap() else {
            panic!("wrong request kind");
        };
        let label = product.scenario_list()[0].label();
        assert!(label.contains("erase(0.2)"), "label: {label}");
        assert!(label.contains("jam("), "label: {label}");
    }

    #[test]
    fn seed_range_rejects_absurd_widths() {
        let line = r#"{"type":"submit_sweep","id":1,
            "scenario":{"topology":{"kind":"path","n":4},"workload":{"kind":"decay","payload":1}},
            "seed_range":{"start":0,"end":2000000}}"#
            .replace('\n', " ");
        assert_eq!(parse_request(&line).unwrap_err().code, "bad_request");
    }
}
