//! The serve path: an in-process `revpebble-serve` daemon on loopback,
//! driven as a closed loop by one persistent client connection per
//! script, plus the traced replay of the same requests in-process on a
//! `SessionRuntime`.

use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use revpebble_core::session::{PebblingSession, ProbeEvent, SessionRuntime};
use revpebble_graph::{parse_json, Dag, JsonValue};
use revpebble_serve::{Client, Request, ServeConfig, Server, ServerHandle};

use crate::gen::{Ask, WireRequest};
use crate::solve::Failure;
use crate::trace::Tracer;
use crate::{Metrics, Ops};

/// A daemon serving on a loopback port from a background thread.
pub struct Daemon {
    handle: ServerHandle,
    thread: thread::JoinHandle<()>,
    /// The clients, one persistent connection per script.
    pub clients: Vec<Client>,
}

impl Daemon {
    /// Binds a daemon with `workers` solver threads and connects
    /// `clients` clients to it.
    pub fn start(workers: usize, clients: usize) -> Daemon {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            connections: clients,
            ..ServeConfig::default()
        })
        .expect("bind a loopback port");
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = thread::spawn(move || {
            server.run();
        });
        let clients = (0..clients)
            .map(|_| Client::connect(addr).expect("connect to the daemon"))
            .collect();
        Daemon {
            handle,
            thread,
            clients,
        }
    }

    /// Closes the connections, shuts the daemon down and waits for it.
    pub fn stop(self) {
        drop(self.clients);
        self.handle.shutdown();
        self.thread.join().expect("the daemon thread exits cleanly");
    }
}

/// The parts of a response the benchmark reads.
#[derive(Debug, Default)]
pub struct Answer {
    /// `status` of the response.
    pub status: String,
    /// The report's `wall_s`: the session's own time inside the daemon.
    pub session_s: f64,
    /// The report's `cache_hits`.
    pub cache_hit: bool,
}

/// Parses a response and checks it against the oracle; on success the
/// strategy's step count.
pub fn check(response: &str, request: &WireRequest, ask: Ask) -> (Answer, Result<usize, Failure>) {
    let Ok(root) = parse_json(response) else {
        return (Answer::default(), Err(Failure::Error));
    };
    let mut answer = Answer {
        status: root
            .get("status")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_owned(),
        ..Answer::default()
    };
    let Some(report) = root.get("report").filter(|_| answer.status == "ok") else {
        return (answer, Err(Failure::Error));
    };
    let number = |key: &str| report.get(key).and_then(JsonValue::as_f64);
    answer.session_s = number("wall_s").unwrap_or(0.0);
    answer.cache_hit = number("cache_hits") == Some(1.0);
    let minimum = report.get("minimum").and_then(JsonValue::as_usize);
    let floor = report.get("floor").and_then(JsonValue::as_usize);
    let stopped = !matches!(report.get("stop_reason"), Some(JsonValue::Null));
    let steps = report
        .get("strategy")
        .and_then(|s| s.get("steps"))
        .and_then(JsonValue::as_usize);
    let checked = match (minimum, steps) {
        _ if stopped => Err(Failure::Error),
        (Some(minimum), Some(steps)) => {
            let proven = ask == Ask::Fixed || floor == Some(minimum);
            if !proven && minimum >= request.min {
                Err(Failure::Unproven)
            } else if minimum != request.min {
                Err(Failure::Wrong)
            } else {
                Ok(steps)
            }
        }
        _ => Err(Failure::Error),
    };
    (answer, checked)
}

/// One answered request: script, index, send and receive instants and
/// the response line.
type Exchange = (usize, usize, Instant, Instant, String);

/// Runs every client's script as a closed loop: each client sends its
/// next request only after the previous answer, and stops at the first
/// boundary between two passes of its script after `deadline`.
fn exchange(
    clients: &mut [Client],
    scripts: &[Vec<WireRequest>],
    deadline: Instant,
) -> Vec<Exchange> {
    thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(scripts)
            .enumerate()
            .map(|(script, (client, requests))| {
                scope.spawn(move || {
                    let mut log = Vec::new();
                    for (index, request) in requests.iter().enumerate() {
                        let boundary = index == 0 || requests[index - 1].pass != request.pass;
                        if boundary && Instant::now() >= deadline {
                            break;
                        }
                        let start = Instant::now();
                        let response = client
                            .send_raw(&request.frame)
                            .unwrap_or_else(|err| format!("{{\"status\":\"io-error: {err}\"}}"));
                        log.push((script, index, start, Instant::now(), response));
                    }
                    log
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("client thread"))
            .collect()
    })
}

/// Checks every exchange into `ops`.
fn settle(log: &[Exchange], scripts: &[Vec<WireRequest>], ask: Ask, ops: &mut Ops) -> Vec<Answer> {
    log.iter()
        .map(|(script, index, start, end, response)| {
            let request = &scripts[*script][*index];
            let (answer, checked) = check(response, request, ask);
            ops.latencies.push(end.duration_since(*start).as_secs_f64());
            ops.settle(format!("c{script}-{index}"), checked);
            answer
        })
        .collect()
}

/// The timed serve phase on an already started daemon.
pub fn timed(daemon: &mut Daemon, scripts: &[Vec<WireRequest>], deadline: Instant) -> Ops {
    let mut ops = Ops::default();
    let start = Instant::now();
    let log = exchange(&mut daemon.clients, scripts, deadline);
    ops.elapsed = start.elapsed().as_secs_f64();
    for (script, requests) in scripts.iter().enumerate() {
        if log.iter().filter(|e| e.0 == script).count() == requests.len() {
            ops.wraps += 1;
        }
    }
    settle(&log, scripts, Ask::Fixed, &mut ops);
    ops
}

/// Untimed warm-up traffic: every client repeats a request on the
/// builtin `paper` DAG (a cache hit after the first) until `deadline`.
/// The scripts' DAGs stay out of the daemon's cache.
pub fn warm_up(daemon: &mut Daemon, deadline: Instant) {
    let frame = r#"{"name":"warm-up","dag":"paper","pebbles":4}"#;
    thread::scope(|scope| {
        for client in &mut daemon.clients {
            scope.spawn(move || {
                while Instant::now() < deadline {
                    client.send_raw(frame).expect("warm-up request");
                }
            });
        }
    });
}

/// The session the daemon builds for a request frame, with an observer
/// that stamps the first probe event.
fn daemon_session<'a>(
    dag: &'a Dag,
    request: &Request,
    first: Arc<Mutex<Option<Instant>>>,
) -> PebblingSession<'a> {
    let mut session = PebblingSession::new(dag)
        .per_query_timeout(Duration::from_millis(request.timeout_ms.unwrap_or(10_000)));
    if let Some(pebbles) = request.pebbles {
        session = session.pebbles(pebbles);
    }
    if request.minimize {
        session = session.minimize();
    }
    if let Some(max_steps) = request.max_steps {
        session = session.max_steps(max_steps);
    }
    session.on_event(move |_: ProbeEvent| {
        first
            .lock()
            .expect("event stamp lock")
            .get_or_insert_with(Instant::now);
    })
}

/// One request replayed in-process: when `SessionRuntime::spawn`
/// returned, when the first probe event arrived, and whether a cache hit
/// replayed a strategy that is invalid for the requesting DAG.
struct Replayed {
    script: usize,
    index: usize,
    spawned: Instant,
    first_event: Instant,
    invalid_hit: bool,
}

/// Replays the answered requests in-process on a `SessionRuntime` with
/// one shared `ResultCache`, one closed-loop thread per script.
fn replay(log: &[Exchange], scripts: &[Vec<WireRequest>], workers: usize) -> Vec<Replayed> {
    let runtime = SessionRuntime::new(workers).expect("at least one worker");
    let sent: Vec<usize> = (0..scripts.len())
        .map(|script| log.iter().filter(|e| e.0 == script).count())
        .collect();
    thread::scope(|scope| {
        let threads: Vec<_> = scripts
            .iter()
            .zip(&sent)
            .enumerate()
            .map(|(script, (requests, &count))| {
                let runtime = runtime.clone();
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(count);
                    for (index, wire) in requests[..count].iter().enumerate() {
                        let request = Request::parse(&wire.frame).expect("benchmark frames parse");
                        let dag = request.dag.resolve();
                        let first = Arc::new(Mutex::new(None));
                        let session = daemon_session(&dag, &request, Arc::clone(&first));
                        let handle = runtime
                            .spawn(session, runtime.root().child())
                            .expect("benchmark sessions are valid");
                        let spawned = Instant::now();
                        let report = handle.join();
                        let first_event =
                            first.lock().expect("event stamp lock").unwrap_or(spawned);
                        let invalid_hit = report.cache_hits == 1
                            && report.strategy().is_none_or(|strategy| {
                                strategy.validate(&dag, report.minimum).is_err()
                            });
                        out.push(Replayed {
                            script,
                            index,
                            spawned,
                            first_event,
                            invalid_hit,
                        });
                    }
                    out
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|thread| thread.join().expect("replay thread"))
            .collect()
    })
}

/// The traced serve path: the scripts over the wire until `deadline`,
/// the benchmark's own parse of every frame sent, and the in-process
/// replay. Returns the wire operations' oracle outcomes.
pub fn traced(
    scripts: &[Vec<WireRequest>],
    ask: Ask,
    workers: usize,
    deadline: Instant,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Ops {
    let mut daemon = Daemon::start(workers, scripts.len());
    let start = Instant::now();
    let mut log = exchange(&mut daemon.clients, scripts, deadline);
    let elapsed = start.elapsed().as_secs_f64();
    daemon.stop();
    log.sort_by_key(|e| e.2);

    let mut ops = Ops {
        elapsed,
        ..Ops::default()
    };
    let answers = settle(&log, scripts, ask, &mut ops);
    let (mut roundtrip, mut session, mut warm) = (0.0, 0.0, Vec::new());
    let (mut hits, mut misses, mut shed, mut errors) = (0u64, 0u64, 0u64, 0u64);
    let mut hit_session = Vec::new();
    for (op, ((script, index, sent, received, _), answer)) in log.iter().zip(&answers).enumerate() {
        tracer.record("server.roundtrip", op, *sent, *received);
        let total = received.duration_since(*sent).as_secs_f64();
        roundtrip += total;
        session += answer.session_s;
        match answer.status.as_str() {
            "ok" if answer.cache_hit => {
                hits += 1;
                hit_session.push(answer.session_s);
            }
            "ok" => misses += 1,
            "overloaded" => shed += 1,
            _ => errors += 1,
        }
        if scripts[*script][*index].warm {
            warm.push((total, answer.session_s));
        }
    }

    // The frames as the daemon sees them: protocol parse, DAG parse and
    // the cache key, timed by the benchmark on the same bytes.
    let mut frame_bytes = 0usize;
    for (op, (script, index, ..)) in log.iter().enumerate() {
        let frame = &scripts[*script][*index].frame;
        frame_bytes += frame.len() + 1;
        let request = tracer
            .span("protocol.parse", op, || Request::parse(frame))
            .expect("benchmark frames parse");
        let adjacency = request.dag.resolve().to_adjacency_json();
        let dag = tracer
            .span("graph.from_json", op, || Dag::from_json(&adjacency))
            .expect("benchmark DAGs parse");
        std::hint::black_box(tracer.span("graph.fingerprint", op, || dag.canonical_fingerprint()));
    }

    let replayed = replay(&log, scripts, workers);
    let mut invalid_replays = 0u64;
    for entry in &replayed {
        let op = log
            .iter()
            .position(|e| (e.0, e.1) == (entry.script, entry.index))
            .expect("replayed requests were sent");
        tracer.record("exec.queue_wait", op, entry.spawned, entry.first_event);
        if entry.invalid_hit {
            invalid_replays += 1;
            if invalid_replays <= 3 {
                eprintln!(
                    "invalid cache replay on c{}-{}: the cached strategy fails validation on \
                     the requesting DAG",
                    entry.script, entry.index
                );
            }
        }
    }
    eprintln!(
        "cache: {invalid_replays} of {} in-process replays were hits with an invalid strategy",
        replayed.len()
    );

    let totals = tracer.totals();
    let n = log.len().max(1) as f64;
    let time = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    metrics.put("cache.hits", hits as f64, "count");
    metrics.put("cache.misses", misses as f64, "count");
    metrics.put(
        "cache.hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    metrics.put(
        "cache.hit_session_s",
        hit_session.iter().sum::<f64>() / hit_session.len().max(1) as f64,
        "s",
    );
    metrics.put("cache.invalid_replays", invalid_replays as f64, "count");
    metrics.put(
        "exec.queue_wait_s",
        time("exec.queue_wait") / replayed.len().max(1) as f64,
        "s",
    );
    metrics.put("protocol.parse_s", time("protocol.parse") / n, "s");
    metrics.put("protocol.frame_bytes", frame_bytes as f64 / n, "bytes");
    metrics.put("graph.from_json_s", time("graph.from_json") / n, "s");
    metrics.put("graph.fingerprint_s", time("graph.fingerprint") / n, "s");
    metrics.put("server.roundtrip_s", roundtrip / n, "s");
    metrics.put("server.session_s", session / n, "s");
    metrics.put("server.overhead_s", (roundtrip - session) / n, "s");
    metrics.put("server.shed", shed as f64, "count");
    metrics.put("server.errors", errors as f64, "count");

    warm.sort_by(|a, b| a.0.total_cmp(&b.0));
    if let Some(&(total, inside)) = warm.get(warm.len() / 2) {
        eprintln!(
            "serve: warm-request median roundtrip {:.6} s = session {:.6} s + overhead {:.6} s \
             ({} warm of {} requests)",
            total,
            inside,
            total - inside,
            warm.len(),
            log.len()
        );
    }
    ops
}
