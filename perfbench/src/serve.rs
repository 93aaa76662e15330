//! The serve rounds: two clients replay `serve::storm::client_script`
//! scripts through `Session::handle` against one shared, uncached
//! `ServeDb`, each waiting for every reply before sending the next
//! request (a closed loop).
//!
//! One pair of scripts covers two generated programs, so the latency
//! mix of a single storm is a property of those two programs. The
//! workload therefore derives several storm seeds from its own seed
//! (one "round" of scripts each) and every client replays its script of
//! each round in rotation.

use crate::trace::Ctx;
use serve::db::ServeDb;
use serve::session::Session;
use serve::storm::{client_script, StormConfig};
use std::sync::Arc;
use std::time::Instant;

/// Clients per round.
pub const CLIENTS: usize = 2;

/// The request methods the scripts use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// First request of every script.
    Load,
    /// A source edit.
    Update,
    /// Block and invocation estimates.
    Estimate,
    /// A (memoized) VM profile.
    Profile,
    /// Weight-matching scores.
    Score,
}

impl Method {
    /// Every method, in report order.
    pub const ALL: [Method; 5] = [
        Method::Load,
        Method::Update,
        Method::Estimate,
        Method::Profile,
        Method::Score,
    ];

    /// The protocol method name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Load => "load",
            Method::Update => "update",
            Method::Estimate => "estimate",
            Method::Profile => "profile",
            Method::Score => "score",
        }
    }

    /// The span name of a request with this method.
    pub fn span(self) -> &'static str {
        match self {
            Method::Load => "serve.load",
            Method::Update => "serve.update",
            Method::Estimate => "serve.estimate",
            Method::Profile => "serve.profile",
            Method::Score => "serve.score",
        }
    }
}

/// One client's script.
pub struct Script {
    /// Request lines.
    pub lines: Vec<String>,
    /// The method of each line.
    pub methods: Vec<Method>,
    /// The source the script leaves its program at.
    pub final_source: String,
}

/// The client scripts of one round.
pub type Round = [Script; CLIENTS];

/// `rounds` script pairs, from storm seeds derived from `seed` alone
/// (25% updates, `requests` requests per client after the load).
pub fn inputs(seed: u64, rounds: usize, requests: usize) -> Vec<Round> {
    (0..rounds as u64)
        .map(|r| {
            let config = StormConfig {
                clients: CLIENTS,
                requests,
                seed: crate::mix(seed, r),
                update_pct: 25,
            };
            std::array::from_fn(|i| script(client_script(&config, i)))
        })
        .collect()
}

fn script(lines: Vec<String>) -> Script {
    let mut methods = Vec::with_capacity(lines.len());
    let mut final_source = String::new();
    for line in &lines {
        let req = serve::proto::parse_request(line).expect("storm scripts are well-formed");
        let method = Method::ALL
            .into_iter()
            .find(|m| m.name() == req.method)
            .expect("storm scripts use the five known methods");
        if let Some(src) = req.param_str("source") {
            final_source = src.to_string();
        }
        methods.push(method);
    }
    Script {
        lines,
        methods,
        final_source,
    }
}

/// The program name client `i` owns in the storm scripts.
fn program_name(i: usize) -> String {
    format!("storm/c{i}")
}

/// When the clients stop.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After the script that ends past this instant.
    At(Instant),
    /// After this many scripts per client.
    Scripts(usize),
}

/// What the clients measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// `(method, latency in microseconds)` per request, timed around
    /// `Session::handle`.
    pub latencies: Vec<(Method, f64)>,
    /// Responses that carried an `error` object.
    pub errors: u64,
    /// Per client, the round of the last script it played.
    pub last: Vec<usize>,
}

/// Replays scripts on one thread per client, all against `db`. Client
/// `i` plays its own script of round `first[i]`, `first[i] + 1`, …
/// (wrapping) back to back, without waiting for the other client, until
/// `stop`.
pub fn replay(
    db: &Arc<ServeDb>,
    rounds: &[Round],
    first: [usize; CLIENTS],
    stop: Stop,
    ctx: Ctx,
) -> Replay {
    let per_client: Vec<Replay> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let session = Session::new(Arc::clone(db));
                s.spawn(move || {
                    let mut out = Replay::default();
                    for n in 1.. {
                        let round = (first[i] + n - 1) % rounds.len();
                        let script = &rounds[round][i];
                        for (line, &m) in script.lines.iter().zip(&script.methods) {
                            let t0 = Instant::now();
                            let resp = ctx.span(m.span(), || session.handle(line).response);
                            out.latencies.push((m, t0.elapsed().as_secs_f64() * 1e6));
                            if resp.contains("\"error\":{") {
                                out.errors += 1;
                            }
                        }
                        let done = match stop {
                            Stop::At(t) => Instant::now() >= t,
                            Stop::Scripts(k) => n >= k,
                        };
                        if done {
                            out.last = vec![round];
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = Replay::default();
    for r in per_client {
        out.latencies.extend(r.latencies);
        out.errors += r.errors;
        out.last.extend(r.last);
    }
    out
}

/// Whether `db` holds exactly what a cold load of each client's final
/// source gives, client `i` having last finished round `last[i]`.
pub fn matches_cold_load(db: &ServeDb, rounds: &[Round], last: &[usize]) -> bool {
    let cold = ServeDb::new(Some(1), None);
    for (i, &r) in last.iter().enumerate() {
        if cold
            .upsert(&program_name(i), &rounds[r][i].final_source)
            .is_err()
        {
            return false;
        }
    }
    cold.state_digest() == db.state_digest()
}

/// The service's own scores for the 14 suite programs on their
/// standard inputs, as `sfe serve --suite` answers `score` requests:
/// means of the Markov intra (5%), invocation and call-site (25%)
/// scores, in percent. `None` if a program fails to load or score.
pub fn suite_accuracy() -> Option<[f64; 3]> {
    let db = ServeDb::new(Some(1), None);
    let markov = estimators::inter::InterEstimator::ALL
        .iter()
        .position(|&w| w == estimators::inter::InterEstimator::Markov)
        .expect("Markov is an inter estimator");
    let programs = ::suite::all();
    let mut sums = [0.0; 3];
    for p in &programs {
        db.upsert_with_inputs(p.name, p.source, Some(p.inputs()))
            .ok()?;
        let scores = db.score(p.name).ok()?;
        sums[0] += scores.intra[2];
        sums[1] += scores.invocation[markov];
        sums[2] += scores.callsite[1];
    }
    Some(sums.map(|x| x / programs.len() as f64 * 100.0))
}
