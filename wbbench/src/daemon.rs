//! The `wbd_bulk` workload: the release daemon in its own process, driven
//! over loopback by one client thread from pre-generated request lines.
//!
//! One session with a pipelining window of 8 requests sends rounds of
//! 65,536-update ingests to a `count_min` tenant (zipf, bare ints; 4
//! shards by default, so each query merges shards) and an `ams_f2` tenant
//! (churn, `[item,delta]` pairs), each round closed by one read-your-writes
//! `query` per tenant, so a round's time covers apply.
//!
//! `wbd` runs with `--threads 1`, an ephemeral loopback port, and every
//! other flag at its default. It receives only the generated lines; the
//! tenants' seed base comes from the benchmark seed through `hello`.
//! Every query answer is checked byte for byte against an in-process
//! replay of the same requests through `wb_daemon::tenant::Tenant` (the
//! daemon ≡ offline identity), and the daemon's final metrics must show
//! `applied == accepted` and no protocol errors.

use crate::replay::{self, Op, TenantLog};
use crate::report::{describe_rates, fastest, median, peak_rss_mb, Outcome, Unit};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use wb_daemon::json::Json;
use wb_engine::tournament::workload_spec;
use wb_engine::workload::UpdateSource;
use wb_engine::{Update, WorkloadSpec};

/// Universe of both tenants' streams.
const N: u64 = 1 << 16;
/// Times `wbd` is started, greeted and (all but the last) shut down per
/// run; `setup_s` is the median.
const SETUPS: usize = 15;
/// Bytes asked of one socket read.
const READ_SIZE: usize = 1 << 16;
/// A reply that takes longer than this counts as missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Updates per ingest.
const BATCH: usize = 65_536;
/// Distinct ingest lines pre-generated per tenant (reused cyclically).
const POOL: usize = 16;

/// The tenant of each ingest in a bulk round, before the round's two
/// queries. Three `count_min` ingests per `ams_f2` one give the tenants
/// similar shares of the daemon's time (a pair costs about four bare
/// ints); interleaving keeps both in the pipeline at once.
const BULK_ROUND: [usize; 8] = [0, 0, 0, 1, 0, 0, 0, 1];

/// Pipelining window of the bulk session.
const BULK_WINDOW: usize = 8;

/// The two tenants: `(id, registry algorithm)`.
const TENANTS: [(&str, &str); 2] = [("cm", "count_min"), ("ams", "ams_f2")];

/// One tenant's pre-generated ingest lines and their updates.
pub struct Inputs {
    /// Request lines, each ending in `\n`.
    pub lines: Vec<String>,
    /// The updates each line carries (the offline reference's input).
    pub updates: Vec<Vec<Update>>,
}

/// Generate tenant `t`'s ingest pool from the benchmark seed.
fn generate(seed: u64, t: usize) -> Inputs {
    let (id, _) = TENANTS[t];
    let m = (POOL * BATCH) as u64;
    let wl_seed = wb_core::rng::derive_seed(seed, &["wbbench", id, "workload"]);
    let spec = if t == 0 {
        WorkloadSpec::Zipf {
            n: N,
            m,
            heavy: 64,
            seed: wl_seed,
        }
    } else {
        // Churn rounds its length down to whole waves; ask for one more.
        workload_spec("churn", N, m + 96, wl_seed).expect("known workload")
    };
    let mut source = spec.stream();
    let mut inputs = Inputs {
        lines: Vec::with_capacity(POOL),
        updates: Vec::with_capacity(POOL),
    };
    let mut buf = Vec::with_capacity(BATCH);
    while inputs.lines.len() < POOL && source.next_chunk(&mut buf) == BATCH {
        inputs.lines.push(ingest_line(id, &buf));
        inputs.updates.push(buf.clone());
    }
    assert_eq!(inputs.lines.len(), POOL, "stream too short");
    inputs
}

/// `{"cmd":"ingest","tenant":ID,"updates":[...]}` — bare ints for
/// inserts, `[item,delta]` pairs for turnstile updates.
fn ingest_line(tenant: &str, updates: &[Update]) -> String {
    use std::fmt::Write as _;
    let mut line = String::with_capacity(32 + updates.len() * 12);
    let _ = write!(line, r#"{{"cmd":"ingest","tenant":"{tenant}","updates":["#);
    for (i, u) in updates.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = match u {
            Update::Insert(item) => write!(line, "{item}"),
            Update::Turnstile { item, delta } => write!(line, "[{item},{delta}]"),
        };
    }
    line.push_str("]}\n");
    line
}

fn query_line(tenant: &str) -> String {
    format!("{{\"cmd\":\"query\",\"tenant\":\"{tenant}\"}}\n")
}

fn hello_line(tenant: &str, alg: &str, seed: u64) -> String {
    format!("{{\"cmd\":\"hello\",\"tenant\":\"{tenant}\",\"alg\":\"{alg}\",\"seed\":{seed}}}\n")
}

/// Seed base every tenant declares in `hello`.
fn seed_base(seed: u64) -> u64 {
    wb_core::rng::derive_seed(seed, &["wbbench", "tenants"])
}

// ---------------------------------------------------------------------------
// Process and connections

/// A running `wbd`; killed and reaped on drop unless shut down cleanly.
struct Wbd {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Wbd {
    fn spawn(path: &Path) -> Result<Wbd, String> {
        let mut child = Command::new(path)
            .args(["--threads", "1", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", path.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut wbd = Wbd {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        wbd.stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading wbd stdout: {e}"))?;
        let event = Json::parse(line.trim()).map_err(|e| format!("wbd said {line:?}: {e}"))?;
        wbd.addr = event
            .get("addr")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("no listening address in {line:?}"))?
            .to_string();
        Ok(wbd)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Graceful drain: `shutdown` on the session, close it, wait for the
    /// exit. The `final_metrics` event stays unread in the stdout pipe,
    /// which holds it whole, so a daemon that never exits cannot block
    /// this wait.
    fn shutdown(mut self, mut conn: Conn) -> Result<(), String> {
        conn.queue(b"{\"cmd\":\"shutdown\"}\n");
        let reply = conn
            .request_blocking()
            .map_err(|e| format!("shutdown: {e}"))?;
        if !reply.starts_with(r#"{"ok":true"#) {
            return Err(format!("shutdown refused: {reply}"));
        }
        drop(conn);
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("wbd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("wbd did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for wbd: {e}")),
            }
        }
    }
}

impl Drop for Wbd {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A non-blocking client session: an outgoing byte queue and a reply
/// line buffer.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    /// Reply bytes; `in_pos..in_end` is received and not yet consumed.
    inbuf: Vec<u8>,
    in_pos: usize,
    in_end: usize,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|_| stream.set_nonblocking(true))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            out_pos: 0,
            inbuf: vec![0; 2 * READ_SIZE],
            in_pos: 0,
            in_end: 0,
        })
    }

    fn queue(&mut self, line: &[u8]) {
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        self.out.extend_from_slice(line);
    }

    fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Write queued bytes until done or the socket is full.
    fn flush(&mut self) -> std::io::Result<()> {
        while self.wants_write() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Read what the socket holds, straight into the line buffer; a short
    /// read means it is drained. EOF is an error (a reply is owed).
    fn fill(&mut self) -> std::io::Result<()> {
        loop {
            if self.in_pos == self.in_end {
                (self.in_pos, self.in_end) = (0, 0);
            }
            if self.inbuf.len() - self.in_end < READ_SIZE {
                self.inbuf.copy_within(self.in_pos..self.in_end, 0);
                (self.in_pos, self.in_end) = (0, self.in_end - self.in_pos);
                let want = (self.in_end + READ_SIZE).max(self.inbuf.len());
                self.inbuf.resize(want, 0);
            }
            let free = self.inbuf.len() - self.in_end;
            match self.stream.read(&mut self.inbuf[self.in_end..]) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.in_end += n;
                    if n < free {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Pop one complete reply line, if buffered.
    fn next_line(&mut self) -> Option<String> {
        let rest = &self.inbuf[self.in_pos..self.in_end];
        let end = rest.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&rest[..end]).into_owned();
        self.in_pos += end + 1;
        Some(line)
    }

    /// Send what is queued and wait for one reply line (set-up and
    /// control requests; not timed).
    fn request_blocking(&mut self) -> Result<String, String> {
        let mut poller = Poller::default();
        loop {
            self.flush().map_err(|e| e.to_string())?;
            if let Some(line) = self.next_line() {
                return Ok(line);
            }
            poller.wait(self)?;
            self.fill().map_err(|e| e.to_string())?;
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: std::os::raw::c_int,
    events: std::os::raw::c_short,
    revents: std::os::raw::c_short,
}

extern "C" {
    fn poll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: std::os::raw::c_int,
    ) -> std::os::raw::c_int;
}

const POLLIN: std::os::raw::c_short = 0x001;
const POLLOUT: std::os::raw::c_short = 0x004;

/// `poll(2)` on the client session, accumulating the time the client
/// spends blocked on the daemon.
#[derive(Default)]
struct Poller {
    waited: Duration,
}

impl Poller {
    /// Block until `conn` is readable (or, when it has bytes queued,
    /// writable).
    fn wait(&mut self, conn: &Conn) -> Result<(), String> {
        let mut fd = PollFd {
            fd: conn.stream.as_raw_fd(),
            events: POLLIN | if conn.wants_write() { POLLOUT } else { 0 },
            revents: 0,
        };
        let t = Instant::now();
        // SAFETY: `fd` is a live, exclusively borrowed `struct pollfd`
        // whose descriptor stays open for the call (it is owned by the
        // borrowed `Conn`); poll only writes its `revents` field.
        let ready = unsafe { poll(&mut fd, 1, REPLY_TIMEOUT.as_millis() as std::os::raw::c_int) };
        self.waited += t.elapsed();
        match ready {
            0 => Err(format!("no reply within {REPLY_TIMEOUT:?}")),
            n if n < 0 => {
                let e = std::io::Error::last_os_error();
                if e.kind() == ErrorKind::Interrupted {
                    Ok(())
                } else {
                    Err(format!("poll: {e}"))
                }
            }
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Load generation

/// What the client measured in the timed window.
#[derive(Default)]
struct Timed {
    ingest_ns: Vec<u64>,
    query_ns: Vec<u64>,
    /// Rounds, in order.
    units: Vec<Unit>,
    wall: Duration,
    waited: Duration,
    sent: u64,
    bytes: u64,
    updates: u64,
}

/// A request in flight on a session.
struct InFlight {
    tenant: usize,
    /// Index into the tenant's ingest pool, or `None` for a query.
    line: Option<usize>,
    sent: Instant,
}

/// The request lines the load generator sends: each tenant's ingest pool, walked
/// cyclically, and its query.
struct Traffic<'a> {
    inputs: &'a [Inputs; 2],
    queries: [String; 2],
    next: [usize; 2],
}

impl<'a> Traffic<'a> {
    fn new(inputs: &'a [Inputs; 2]) -> Self {
        Traffic {
            inputs,
            queries: TENANTS.map(|(id, _)| query_line(id)),
            next: [0; 2],
        }
    }

    /// Queue tenant `t`'s next ingest (or, with `ingest` false, its
    /// query) on `conn`.
    fn enqueue(&mut self, conn: &mut Conn, t: usize, ingest: bool, timed: &mut Timed) -> InFlight {
        let (bytes, line) = if ingest {
            let pool = &self.inputs[t].lines;
            let i = self.next[t] % pool.len();
            self.next[t] += 1;
            (pool[i].as_bytes(), Some(i))
        } else {
            (self.queries[t].as_bytes(), None)
        };
        conn.queue(bytes);
        timed.bytes += bytes.len() as u64;
        timed.sent += 1;
        InFlight {
            tenant: t,
            line,
            sent: Instant::now(),
        }
    }
}

/// The `accepted` count of an ingest acknowledgement.
fn acked(reply: &str) -> Option<usize> {
    let rest = reply.strip_prefix(r#"{"ok":true,"accepted":"#)?;
    rest.split(',').next()?.parse().ok()
}

/// Check one reply against its request; log it for the replay.
fn settle(
    reply: &str,
    req: InFlight,
    logs: &mut [TenantLog; 2],
    timed: &mut Timed,
    out: &mut Outcome,
) {
    let ns = req.sent.elapsed().as_nanos() as u64;
    let log = &mut logs[req.tenant];
    match req.line {
        Some(line) => {
            timed.ingest_ns.push(ns);
            if acked(reply) == Some(BATCH) {
                log.ops.push(Op::Ingest(line));
            } else {
                out.fail(format!("ingest to {}: {reply}", log.id));
            }
        }
        None => {
            timed.query_ns.push(ns);
            if reply.starts_with(r#"{"ok":true"#) {
                log.ops.push(Op::Query(reply.to_string()));
            } else {
                out.fail(format!("query to {}: {reply}", log.id));
            }
        }
    }
}

/// `wbd_bulk`: rounds on one session with a window of 8 requests.
fn drive_bulk(
    conn: &mut Conn,
    inputs: &[Inputs; 2],
    seconds: f64,
    logs: &mut [TenantLog; 2],
    out: &mut Outcome,
) -> Result<Timed, String> {
    let mut timed = Timed::default();
    let mut poller = Poller::default();
    let mut traffic = Traffic::new(inputs);
    let round_updates = BULK_ROUND.len() * BATCH;
    let start = Instant::now();
    while timed.units.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let round_start = Instant::now();
        let mut pending: VecDeque<InFlight> = VecDeque::new();
        let mut todo = BULK_ROUND
            .iter()
            .map(|&t| (t, true))
            .chain([(0, false), (1, false)]);
        let mut more = todo.next();
        while more.is_some() || !pending.is_empty() {
            while pending.len() < BULK_WINDOW {
                let Some((t, ingest)) = more else { break };
                pending.push_back(traffic.enqueue(conn, t, ingest, &mut timed));
                more = todo.next();
            }
            conn.flush().map_err(|e| format!("send: {e}"))?;
            let mut got = false;
            while let Some(reply) = conn.next_line() {
                let req = pending.pop_front().ok_or("reply without a request")?;
                settle(&reply, req, logs, &mut timed, out);
                got = true;
            }
            if !got {
                poller.wait(conn)?;
                conn.fill().map_err(|e| format!("receive: {e}"))?;
            }
        }
        timed.updates += round_updates as u64;
        timed.units.push(Unit {
            rate: round_updates as f64 / round_start.elapsed().as_secs_f64(),
            ingest_end: timed.ingest_ns.len(),
            query_end: timed.query_ns.len(),
        });
    }
    timed.wall = start.elapsed();
    timed.waited = poller.waited;
    Ok(timed)
}

// ---------------------------------------------------------------------------
// The workload

/// Start `wbd`, open a session and greet every tenant. Returns the
/// daemon, its session and the elapsed set-up time.
fn set_up(wbd: &Path, seed: u64) -> Result<(Wbd, Conn, f64), String> {
    let t0 = Instant::now();
    let daemon = Wbd::spawn(wbd)?;
    let mut conn = Conn::connect(&daemon.addr)?;
    for (id, alg) in TENANTS {
        conn.queue(hello_line(id, alg, seed_base(seed)).as_bytes());
        let reply = conn.request_blocking()?;
        if !reply.starts_with(r#"{"ok":true"#) {
            return Err(format!("hello {id}: {reply}"));
        }
    }
    Ok((daemon, conn, t0.elapsed().as_secs_f64()))
}

/// Daemon counters read through `metrics` after the timed window.
fn read_metrics(conn: &mut Conn, out: &mut Outcome, traced: bool) -> Result<(), String> {
    conn.queue(b"{\"cmd\":\"metrics\"}\n");
    let reply = conn.request_blocking()?;
    let v = Json::parse(&reply).map_err(|e| format!("metrics reply: {e}"))?;
    let m = v.get("metrics").ok_or("metrics reply without metrics")?;
    let num = |path: &[&str]| -> f64 {
        let mut node = Some(m);
        for key in path {
            node = node.and_then(|n| n.get(key));
        }
        node.and_then(Json::as_u64).unwrap_or(0) as f64
    };
    if num(&["sessions", "protocol_errors"]) != 0.0 {
        out.fail(format!(
            "{} protocol errors",
            num(&["sessions", "protocol_errors"])
        ));
    }
    for tenant in m.get("per_tenant").and_then(Json::as_arr).unwrap_or(&[]) {
        let field = |k: &str| tenant.get(k).and_then(Json::as_u64);
        if field("applied") != field("accepted") {
            out.fail(format!(
                "tenant {:?}: applied {:?} != accepted {:?}",
                tenant.get("id").and_then(Json::as_str),
                field("applied"),
                field("accepted")
            ));
        }
    }
    if traced {
        let requests = num(&["sessions", "requests"]).max(1.0);
        out.set(
            "reactor.ready_events_per_req",
            num(&["reactor", "ready_events"]) / requests,
        );
        out.set(
            "reactor.wakeups_per_req",
            num(&["reactor", "wakeups"]) / requests,
        );
        out.set(
            "reactor.pending_ops_per_req",
            num(&["reactor", "pending_ops"]) / requests,
        );
        out.set(
            "reactor.deferred_submits",
            num(&["reactor", "deferred_submits"]),
        );
        out.set("reactor.write_stalls", num(&["reactor", "write_stalls"]));
        out.set("pool.jobs_per_req", num(&["pool", "submitted"]) / requests);
        out.set("pool.submit_stalls", num(&["pool", "submit_stalls"]));
        out.set("pool.peak_depth", num(&["pool", "peak_depth"]));
        out.set("tenant.inbox_stalls", num(&["tenants", "inbox_stalls"]));
        out.set(
            "tenant.shard_queue_stalls",
            num(&["tenants", "shard_queue_stalls"]),
        );
    }
    Ok(())
}

/// Run `wbd_bulk` for `seconds`; with `traced`, also replay its requests
/// in process with a timer around each layer's call.
pub fn run(wbd: &Path, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let inputs = [generate(seed, 0), generate(seed, 1)];
    let mut out = Outcome::default();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for i in 0..SETUPS {
        let (daemon, conn, secs) = set_up(wbd, seed)?;
        setups.push(secs);
        if i + 1 < SETUPS {
            daemon.shutdown(conn)?;
        } else {
            live = Some((daemon, conn));
        }
    }
    let (daemon, mut conn) = live.expect("at least one set-up");
    let quickest = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = setups.iter().copied().fold(0.0, f64::max);
    eprintln!(
        "wbbench: {SETUPS} start-ups: fastest {:.3} ms, median {:.3} ms, slowest {:.3} ms",
        quickest * 1e3,
        median(&setups) * 1e3,
        slowest * 1e3
    );
    let mut logs = TENANTS.map(|(id, alg)| TenantLog::new(id, alg));
    let timed = drive_bulk(&mut conn, &inputs, seconds, &mut logs, &mut out)?;
    out.attempted = timed.sent;
    read_metrics(&mut conn, &mut out, traced)?;
    let rss = peak_rss_mb(&daemon.pid()).ok_or("cannot read wbd VmHWM")?;
    daemon.shutdown(conn)?;

    let fast = fastest(&timed.units, &timed.ingest_ns, &timed.query_ns);
    out.set("setup_s", median(&setups));
    out.set("throughput_mups", fast.rate / 1e6);
    eprintln!(
        "wbbench: rates: {}; the fastest {} give the end-to-end metrics",
        describe_rates(&timed.units),
        fast.units
    );
    out.set("ingest_p50_ms", fast.ingest_ms.0);
    out.set("ingest_p99_ms", fast.ingest_ms.1);
    out.set("query_p50_ms", fast.query_ms.0);
    out.set("query_p99_ms", fast.query_ms.1);
    out.set("peak_rss_mb", rss);
    out.set("latency.ingest_samples", fast.ingest_samples as f64);
    out.set("latency.query_samples", fast.query_samples as f64);
    let wall = timed.wall.as_secs_f64();
    let wait_frac = timed.waited.as_secs_f64() / wall;
    out.set("loadgen.wait_frac", wait_frac);
    out.set(
        "wire.bytes_per_update",
        timed.bytes as f64 / timed.updates as f64,
    );
    eprintln!(
        "wbbench: wbd_bulk: {} requests, {} updates in {wall:.3} s; client waited {:.1}% of it",
        timed.sent,
        timed.updates,
        100.0 * wait_frac
    );
    if wait_frac < 0.5 {
        eprintln!(
            "wbbench: WARNING: loadgen.wait_frac {wait_frac:.3} < 0.5 — this run measures the \
             client, not wbd"
        );
    }

    let split = replay::check(&logs, &inputs, seed_base(seed), traced, &mut out);
    if let Some(split) = split {
        let reactor = split.json + split.decode + split.validate + split.query + split.encode;
        let worker = split.apply;
        out.set("json.parse_s", split.json);
        out.set("proto.decode_s", split.decode);
        out.set("proto.encode_s", split.encode);
        out.set("tenant.validate_s", split.validate);
        out.set("tenant.apply_s", split.apply);
        out.set("tenant.query_s", split.query);
        out.set("wbd.reactor_thread_s", reactor);
        out.set("wbd.worker_s", worker);
        out.set("wbd.residual_s", wall - reactor.max(worker));
        out.set("trace.untraced_wall_s", wall);
        out.set("trace.traced_wall_s", split.wall);
        out.set("trace.overhead_frac", split.wall / wall - 1.0);
        eprintln!(
            "wbbench: split: reactor thread {reactor:.3} s (json {:.3} + decode {:.3} + validate \
             {:.3} + query {:.3} + encode {:.3}), worker {worker:.3} s (apply); wall {wall:.3} s = \
             max {:.3} + residual {:.3}; replay {:.3} s",
            split.json,
            split.decode,
            split.validate,
            split.query,
            split.encode,
            reactor.max(worker),
            wall - reactor.max(worker),
            split.wall
        );
        eprintln!("wbbench: replay time shares: {}", split.shares);
    }
    Ok(out)
}
