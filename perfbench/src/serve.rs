//! serve-mix: an open loop at a fixed rate against an in-process
//! `fragalign serve` (2 workers, default `auto`), from a sender and a
//! receiver thread over 2 keep-alive connections. About 3 in 10
//! requests repeat an earlier body byte for byte and take the inline
//! cache-hit path; the rest are fresh 24-region sims (routed to `csr`)
//! and 40-region torn instances (routed to `four`).

use crate::checks::{check_answer, CheckError};
use crate::inputs::{decode_all, serve_plan, stream, PlanShape, ServePlan, Slot};
use crate::layers::{self, Layers};
use crate::phase::SetupTimer;
use crate::report::EndToEnd;
use crate::stats::{median, percentile, Rng};
use crate::sys::{peak_rss_mib, process_cpu_time};
use crate::Traced;
use fragalign::model::{Instance, Score};
use fragalign::serve::poll::{stream_fd, Poller};
use fragalign::serve::{client, ServeConfig, Server};
use serde::Value;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Requests per second. About 18 fresh solves a second of a few ms
/// each keep the workers (and the solves' 2-wide pool) busy well under
/// half the time even when the host runs at a third of its speed, so
/// admission never degrades or refuses.
pub const RATE: f64 = 25.0;
/// Share of requests that repeat an earlier body. Far from 50%, so the
/// median sits inside the misses, and far from 1 − the tail percentile.
/// The median is a miss rather than a hit because a hit's client
/// latency is mostly thread wake-ups and loopback TCP, which swung 3x
/// with the host's load; a miss is mostly solve.
pub const REPEAT_SHARE: f64 = 0.3;
/// A body is repeated only once its miss has had this long to be
/// answered and cached.
pub const REPEAT_AFTER_S: f64 = 0.25;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Keep-alive connections of the generator.
pub const CONNS: usize = 2;
/// Tail percentile: a run has 875 requests, so 43 lie beyond it, all
/// misses.
pub const TAIL_Q: f64 = 0.95;
/// Latency limit of one request, from its scheduled send time.
pub const SLO_MS: f64 = 250.0;
/// Consecutive parts the plan is driven in. The timed run times a
/// burst of [`SETUP_REPS`] server start-ups before each part and after
/// the last; the traced run drives each part against its untraced and
/// its traced server in turn.
pub const SEGMENTS: usize = 24;
/// Server start-ups in each set-up burst of the timed run: 200 a run,
/// at 25 moments spread over it. A start-up's time follows the host's
/// state at that moment, so moments count more than start-ups.
pub const SETUP_REPS: usize = 8;
/// Stop waiting for answers this long after the last scheduled send.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

fn config(trace_sample: u64) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        trace_sample,
        ..ServeConfig::default()
    }
}

/// Start a server and wait until `/healthz` answers 200.
fn start(cfg: ServeConfig) -> io::Result<Server> {
    let server = Server::start(cfg)?;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client::get(server.addr(), "/healthz") {
            Ok(resp) if resp.status == 200 => return Ok(server),
            Ok(resp) => {
                return Err(io::Error::other(format!(
                    "/healthz answered {}",
                    resp.status
                )))
            }
            Err(e) if Instant::now() > deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Set-up: [`SETUP_REPS`] timed start-ups of other servers, each from
/// server start until `/healthz` answers (shutdown untimed).
fn setup(timer: &mut SetupTimer) -> io::Result<()> {
    for _ in 0..SETUP_REPS {
        timer.time(|| start(config(0)))?.shutdown();
    }
    Ok(())
}

/// One parsed response.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// The `X-Fragalign-Cache` header (`hit` / `miss`), if any.
    pub cache: Option<String>,
    /// Response body.
    pub body: String,
}

/// One request of the open loop, answered.
#[derive(Clone, Debug)]
pub struct Sent {
    /// Index into the plan's bodies.
    pub body: usize,
    /// Send time minus scheduled time, milliseconds.
    pub late_ms: f64,
    /// Answer time minus scheduled time, milliseconds.
    pub latency_ms: f64,
    /// The answer.
    pub reply: Reply,
}

/// Parse one response off the front of `buf`: `Some((reply, bytes
/// consumed))` once complete.
pub fn parse_reply(buf: &[u8]) -> io::Result<Option<(Reply, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let (mut len, mut cache) = (None, None);
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => len = value.trim().parse::<usize>().ok(),
                "x-fragalign-cache" => cache = Some(value.trim().to_string()),
                _ => {}
            }
        }
    }
    let len = len.ok_or_else(|| bad("no Content-Length"))?;
    let start = head_end + 4;
    if buf.len() < start + len {
        return Ok(None);
    }
    let body = String::from_utf8(buf[start..start + len].to_vec())
        .map_err(|_| bad("body is not UTF-8"))?;
    Ok(Some((
        Reply {
            status,
            cache,
            body,
        },
        start + len,
    )))
}

/// Requests sent on one connection and not yet answered, oldest
/// first: the sender pushes a slot before writing it, the receiver pops
/// one per parsed answer.
#[derive(Default)]
struct InFlight {
    slots: Mutex<VecDeque<usize>>,
    count: AtomicUsize,
}

/// Sleep until `t0 + at_s`; the last stretch spins, so sends are not
/// late by the sleep's timer slack.
fn wait_until(t0: Instant, at_s: f64) {
    const SPIN: Duration = Duration::from_micros(150);
    let target = t0 + Duration::from_secs_f64(at_s);
    let now = Instant::now();
    if target > now + SPIN {
        std::thread::sleep(target - now - SPIN);
    }
    while Instant::now() < target {
        std::hint::spin_loop();
    }
}

/// Read answers off every connection until all `total` requests are
/// answered, timestamping each as soon as its last byte is parsed.
fn receive(
    streams: Vec<TcpStream>,
    queues: &[InFlight],
    t0: Instant,
    slots: &[Slot],
    stop: &AtomicBool,
) -> io::Result<Vec<Option<(f64, Reply)>>> {
    let mut streams = streams;
    let mut bufs = vec![Vec::new(); streams.len()];
    let mut answers: Vec<Option<(f64, Reply)>> = vec![None; slots.len()];
    let mut answered = 0;
    let mut poller = Poller::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let base = slots.first().map_or(0.0, |s| s.at_s);
    let deadline =
        Duration::from_secs_f64(slots.last().map_or(0.0, |s| s.at_s) - base) + DRAIN_LIMIT;
    while answered < slots.len() {
        if stop.load(Ordering::SeqCst) {
            return Err(io::Error::other("the sender stopped"));
        }
        if t0.elapsed() > deadline {
            return Err(io::Error::other("server stopped answering"));
        }
        poller.clear();
        for stream in &streams {
            poller.register(stream_fd(stream), true, false);
        }
        poller.wait(Some(Duration::from_millis(20)))?;
        for (i, stream) in streams.iter_mut().enumerate() {
            if !poller.readable(i) {
                continue;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::other("server closed a keep-alive connection"));
            }
            bufs[i].extend_from_slice(&chunk[..n]);
            while let Some((reply, used)) = parse_reply(&bufs[i])? {
                let done = t0.elapsed().as_secs_f64();
                bufs[i].drain(..used);
                let slot = queues[i]
                    .slots
                    .lock()
                    .expect("in-flight queue lock")
                    .pop_front()
                    .ok_or_else(|| io::Error::other("an answer to no request"))?;
                queues[i].count.fetch_sub(1, Ordering::SeqCst);
                answers[slot] = Some(((done - (slots[slot].at_s - base)) * 1e3, reply));
                answered += 1;
            }
        }
    }
    Ok(answers)
}

/// Drive a run of consecutive `slots` (whose bodies index `requests`)
/// against `addr` over [`CONNS`] fresh keep-alive connections, the
/// first slot going out at once: this thread sends each request at its
/// scheduled time on the connection with the fewest requests in flight
/// (pipelining only when both are busy, ties taken in turn); one
/// receiver thread reads the answers. Returns every answered request in
/// slot order and the phase's (wall, CPU) seconds.
fn drive(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    slots: &[Slot],
) -> io::Result<(Vec<Sent>, f64, f64)> {
    let base = slots.first().map_or(0.0, |s| s.at_s);
    let mut writers = Vec::with_capacity(CONNS);
    let mut readers = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        readers.push(stream.try_clone()?);
        writers.push(stream);
    }
    let queues: Vec<InFlight> = (0..CONNS).map(|_| InFlight::default()).collect();
    let stop = AtomicBool::new(false);
    let cpu0 = process_cpu_time();
    let t0 = Instant::now();
    let (late, answers) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(readers, &queues, t0, slots, &stop));
        let mut late = Vec::with_capacity(slots.len());
        let mut sent = Ok(());
        for (i, slot) in slots.iter().enumerate() {
            wait_until(t0, slot.at_s - base);
            // Ties go round robin, so both connections carry traffic.
            let c = (0..CONNS)
                .min_by_key(|&c| (queues[c].count.load(Ordering::SeqCst), (c + i) % CONNS))
                .expect("CONNS > 0");
            queues[c]
                .slots
                .lock()
                .expect("in-flight queue lock")
                .push_back(i);
            queues[c].count.fetch_add(1, Ordering::SeqCst);
            late.push((t0.elapsed().as_secs_f64() - (slot.at_s - base)) * 1e3);
            if let Err(e) = writers[c].write_all(&requests[slot.body]) {
                stop.store(true, Ordering::SeqCst);
                sent = Err(e);
                break;
            }
        }
        let answers = receiver.join().expect("receiver thread panicked");
        sent.map(|()| late).and_then(|late| Ok((late, answers?)))
    })?;
    let wall = t0.elapsed().as_secs_f64();
    let cpu = (process_cpu_time() - cpu0).as_secs_f64();
    let sent = answers
        .into_iter()
        .zip(slots)
        .zip(late)
        .map(|((a, slot), late_ms)| {
            let (latency_ms, reply) = a.expect("every slot answered");
            Sent {
                body: slot.body,
                late_ms,
                latency_ms,
                reply,
            }
        })
        .collect();
    Ok((sent, wall, cpu))
}

/// The bytes of one `POST /v1/solve` request carrying `body`.
fn request_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/solve HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Check every answer. A body's first answer is its miss and must pass
/// [`check_answer`]; every later hit must be byte-identical to it, and
/// any later miss must pass the checks and score the same. A status
/// other than 200 is an error.
pub fn check_replies(insts: &[Instance], sent: &[Sent]) -> Vec<Result<Score, CheckError>> {
    let mut canonical: Vec<Option<(&str, Score)>> = vec![None; insts.len()];
    sent.iter()
        .map(|s| {
            if s.reply.status != 200 {
                return Err(CheckError::Status(s.reply.status));
            }
            let body = s.reply.body.as_str();
            match canonical[s.body] {
                None => {
                    let score = check_answer(&insts[s.body], body)?;
                    canonical[s.body] = Some((body, score));
                    Ok(score)
                }
                Some((first, score)) if s.reply.cache.as_deref() == Some("hit") => {
                    if body == first {
                        Ok(score)
                    } else {
                        Err(CheckError::HitBody)
                    }
                }
                Some((_, reference)) => {
                    let score = check_answer(&insts[s.body], body)?;
                    if score == reference {
                        Ok(score)
                    } else {
                        Err(CheckError::Reference { score, reference })
                    }
                }
            }
        })
        .collect()
}

fn plan(seed: u64, seconds: f64) -> ServePlan {
    let requests =
        ((seconds * RATE).ceil() as usize).max(crate::stats::min_samples_for_tail(TAIL_Q));
    serve_plan(
        Rng::new(seed, stream::PLAN).next_u64(),
        PlanShape {
            rate: RATE,
            requests,
            repeat_share: REPEAT_SHARE,
            repeat_after_s: REPEAT_AFTER_S,
        },
    )
}

/// The bytes of every request body of `plan`.
fn plan_requests(plan: &ServePlan) -> Vec<Vec<u8>> {
    plan.bodies.iter().map(|b| request_bytes(b)).collect()
}

/// The slots of part `i` of [`SEGMENTS`] consecutive parts of `plan`.
fn segment(plan: &ServePlan, i: usize) -> &[Slot] {
    let n = plan.slots.len();
    &plan.slots[i * n / SEGMENTS..(i + 1) * n / SEGMENTS]
}

/// The timed (untraced) run: one server takes the whole plan, in
/// [`SEGMENTS`] parts, with a burst of timed start-ups of other servers
/// before each part and after the last. The server keeps its cache
/// throughout.
pub fn run(seed: u64, seconds: f64) -> io::Result<EndToEnd> {
    let plan = plan(seed, seconds);
    let insts = decode_all(&plan.inputs);
    let requests = plan_requests(&plan);
    let mut timer = SetupTimer::default();
    let server = start(config(0))?;
    let (mut sent, mut wall_s, mut cpu_s) = (Vec::with_capacity(plan.slots.len()), 0.0, 0.0);
    for i in 0..SEGMENTS {
        setup(&mut timer)?;
        let (s, w, c) = drive(server.addr(), &requests, segment(&plan, i))?;
        sent.extend(s);
        wall_s += w;
        cpu_s += c;
    }
    setup(&mut timer)?;
    server.shutdown();
    let mut e2e = EndToEnd::new(TAIL_Q, SLO_MS);
    e2e.setup_s = timer.median();
    e2e.wall_s = wall_s;
    e2e.cpu_s = cpu_s;
    e2e.peak_rss_mib = peak_rss_mib()?;
    for (s, verdict) in sent.iter().zip(check_replies(&insts, &sent)) {
        e2e.record(
            s.body,
            s.latency_ms,
            insts[s.body].score_upper_bound(),
            verdict,
        );
    }
    let worst_late = sent.iter().map(|s| s.late_ms).fold(0.0, f64::max);
    println!(
        "serve-mix generator: worst lateness {worst_late:.3} ms against the schedule; {} server start-ups timed",
        timer.count()
    );
    Ok(e2e)
}

fn metric_at(doc: &Value, path: &[&str]) -> f64 {
    let mut v = doc;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return f64::NAN,
        }
    }
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        _ => f64::NAN,
    }
}

/// The traced run: the plan of a quarter of the budget is driven
/// against two fresh servers, one untraced and one that samples every
/// solve into its trace ring. The plan is cut into
/// [`SEGMENTS`] parts and each part goes to both servers, the
/// server that goes first alternating, so both see the same requests
/// under the same host conditions. Then come the width-1 reference
/// solve of every fresh instance, width-2 and traced in-process solves,
/// and the layer probes.
pub fn run_traced(seed: u64, seconds: f64) -> io::Result<Traced> {
    let plan = plan(seed, seconds / 4.0);
    let insts = decode_all(&plan.inputs);
    let requests = plan_requests(&plan);
    let servers = [start(config(0))?, start(config(1))?];
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for i in 0..SEGMENTS {
        let arms = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for k in arms {
            let (sent, _, _) = drive(servers[k].addr(), &requests, segment(&plan, i))?;
            [&mut plain, &mut traced][k].extend(sent);
        }
    }
    let metrics = client::get(servers[0].addr(), "/metrics")?;
    for server in servers {
        server.shutdown();
    }
    let metrics: Value = serde_json::from_str(&metrics.body)
        .map_err(|e| io::Error::other(format!("/metrics is not JSON: {e:?}")))?;

    // Every answer of both phases against the width-1 solve.
    let refs_insts: Vec<&Instance> = insts.iter().collect();
    let refs = layers::solve_all(&refs_insts, 1);
    let mut problems = Vec::new();
    let mut failed = 0u64;
    for sent in [&plain, &traced] {
        for (s, check) in sent.iter().zip(check_replies(&insts, sent)) {
            let reference = refs[s.body].score;
            let verdict = check.and_then(|score| match score == reference {
                true => Ok(score),
                false => Err(CheckError::Reference { score, reference }),
            });
            if let Err(e) = verdict {
                failed += 1;
                problems.push(format!("request for body {}: {e}", s.body));
            }
        }
    }

    let mut layers = Layers::default();
    let p50 = |sent: &[Sent]| {
        median(&sent.iter().map(|s| s.latency_ms).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    layers.set("obs.overhead_ratio", p50(&traced) / p50(&plain));
    let split = |hit: bool| -> Vec<f64> {
        plain
            .iter()
            .filter(|s| (s.reply.cache.as_deref() == Some("hit")) == hit)
            .map(|s| s.latency_ms)
            .collect()
    };
    let (hits, misses) = (split(true), split(false));
    layers.set("serve.client.hit_ms.p50", median(&hits).unwrap_or(0.0));
    layers.set("serve.client.miss_ms.p50", median(&misses).unwrap_or(0.0));
    layers.set(
        "serve.client.miss_ms.tail",
        percentile(&misses, 0.9).unwrap_or(0.0),
    );
    layers.set(
        "serve.cache.hit_ratio",
        hits.len() as f64 / plain.len() as f64,
    );
    layers.set(
        "serve.generator.late_ms",
        plain.iter().map(|s| s.late_ms).fold(0.0, f64::max),
    );
    for (name, path) in [
        (
            "serve.server.queue_wait_ms.p50",
            ["queue_wait", "p50_ms"].as_slice(),
        ),
        ("serve.server.queue_wait_ms.p99", &["queue_wait", "p99_ms"]),
        ("serve.server.service_ms.p50", &["service", "p50_ms"]),
        ("serve.server.service_ms.p99", &["service", "p99_ms"]),
        ("serve.admission.degraded", &["admission_degraded"]),
        ("serve.rejected_503", &["rejected_503"]),
        ("serve.keepalive_reuse", &["keepalive_reuse"]),
    ] {
        layers.set(name, metric_at(&metrics, path));
    }

    layers::record_width1(&mut layers, &refs);
    let width2 = layers::solve_all(&refs_insts, 2);
    let w2: u64 = width2.iter().map(|r| r.report.dp_fills).sum();
    let w1: u64 = refs.iter().map(|r| r.report.dp_fills).sum();
    layers::record_fill_waste(&mut layers, w2, w1);
    let solve_ms: Vec<f64> = width2.iter().map(|r| r.report.wall_secs * 1e3).collect();
    layers.set("core.engine.solve_ms.p50", median(&solve_ms).unwrap_or(0.0));
    layers::record_spans(&mut layers, &refs_insts);
    let texts: Vec<&str> = plan.inputs.iter().map(|i| i.text.as_str()).collect();
    for e in layers::record_micro(&mut layers, &refs_insts, &texts, &refs) {
        problems.push(e.to_string());
    }
    record_request_layers(&mut layers, &plan);
    Ok(Traced {
        layers,
        attempted: (plain.len() + traced.len()) as u64,
        failed,
        problems,
    })
}

/// `serve.http.parse_us` and `serve.cache.fingerprint_us` over the
/// recorded request bytes: median per request.
fn record_request_layers(layers: &mut Layers, plan: &ServePlan) {
    let max_body = ServeConfig::default().max_body_bytes;
    let (mut parse, mut fingerprint) = (Vec::new(), Vec::new());
    for slot in &plan.slots {
        let body = &plan.bodies[slot.body];
        let bytes = request_bytes(body);
        let t = Instant::now();
        let parsed = fragalign::serve::http::try_parse(std::hint::black_box(&bytes), max_body);
        parse.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(
            matches!(parsed, Ok(fragalign::serve::http::Parse::Ready { .. })),
            "recorded requests parse"
        );
        let t = Instant::now();
        std::hint::black_box(fragalign::serve::cache::fingerprint(std::hint::black_box(
            body,
        )));
        fingerprint.push(t.elapsed().as_secs_f64() * 1e6);
    }
    layers.set("serve.http.parse_us", median(&parse).unwrap_or(0.0));
    layers.set(
        "serve.cache.fingerprint_us",
        median(&fingerprint).unwrap_or(0.0),
    );
}
