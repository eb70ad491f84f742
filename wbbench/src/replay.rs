//! The offline reference for the `wbd` workloads, and their traced run.
//!
//! Every request a tenant's session got answered is replayed in process
//! through `wb_daemon::tenant::Tenant`, built exactly as the daemon builds
//! it (same id, algorithm, seed base, default shard count and chunk), and
//! every query reply the daemon sent must equal the replay's reply line
//! byte for byte. Untraced, the replay applies the generated updates
//! directly; traced, it decodes the very request lines the daemon read
//! and times each layer's public call: `Json::parse`, `parse_request`,
//! `validate_batch`, `apply_chunk` over `--chunk` slices, `query`, and the
//! reply encoding.

use crate::daemon::Inputs;
use crate::report::Outcome;
use std::hint::black_box;
use std::time::{Duration, Instant};
use wb_daemon::json::{obj, Json};
use wb_daemon::proto::{self, HelloParams, Request};
use wb_daemon::tenant::Tenant;
use wb_daemon::DaemonConfig;
use wb_engine::Update;

/// One answered request of a tenant, in session order.
pub enum Op {
    /// An acknowledged ingest of line `i` of the tenant's pool.
    Ingest(usize),
    /// A query and the daemon's reply line.
    Query(String),
}

/// A tenant's answered requests.
pub struct TenantLog {
    pub id: &'static str,
    pub alg: &'static str,
    pub ops: Vec<Op>,
}

impl TenantLog {
    pub fn new(id: &'static str, alg: &'static str) -> TenantLog {
        TenantLog {
            id,
            alg,
            ops: Vec::new(),
        }
    }
}

/// Busy time per layer of the traced replay, in seconds.
#[derive(Default)]
pub struct Split {
    pub json: f64,
    pub decode: f64,
    pub validate: f64,
    pub apply: f64,
    pub query: f64,
    pub encode: f64,
    /// Wall time of the whole replay.
    pub wall: f64,
    /// Each tenant's share of the replay's busy time.
    pub shares: String,
}

/// Per-layer timers of one tenant's traced replay.
#[derive(Default)]
struct Layers {
    json: Duration,
    decode: Duration,
    validate: Duration,
    apply: Duration,
    query: Duration,
    encode: Duration,
}

impl Layers {
    fn total(&self) -> Duration {
        self.json + self.decode + self.validate + self.apply + self.query + self.encode
    }
}

/// The daemon's `query` reply for `tenant` (see `wb_daemon::dispatch`).
fn query_reply(tenant: &mut Tenant, layers: &mut Layers) -> Result<String, String> {
    let t0 = Instant::now();
    let answer = tenant.query().map_err(|e| e.message)?;
    let t1 = Instant::now();
    let line = obj(vec![
        ("ok", Json::Bool(true)),
        ("tenant", Json::from(tenant.id.as_str())),
        ("answer", proto::answer_to_json(&answer)),
        ("space_bits", Json::from(tenant.space_bits())),
        ("processed", Json::from(tenant.applied)),
    ])
    .to_line();
    layers.query += t1 - t0;
    layers.encode += t1.elapsed();
    Ok(line)
}

/// Admit and apply one batch the way the daemon does: validate, count it
/// accepted, apply it in `chunk`-sized slices.
fn ingest(
    tenant: &mut Tenant,
    updates: &[Update],
    chunk: usize,
    layers: &mut Layers,
) -> Result<(), String> {
    let t0 = Instant::now();
    tenant.validate_batch(updates).map_err(|e| e.message)?;
    let t1 = Instant::now();
    tenant.accepted += updates.len() as u64;
    tenant.batches += 1;
    for piece in updates.chunks(chunk) {
        tenant.apply_chunk(piece);
    }
    let t2 = Instant::now();
    layers.validate += t1 - t0;
    layers.apply += t2 - t1;
    Ok(())
}

/// Replay one tenant; a reply mismatch or a refused request is a failure.
fn replay_tenant(
    log: &TenantLog,
    inputs: &Inputs,
    seed_base: u64,
    traced: bool,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let cfg = DaemonConfig::default();
    let hello = HelloParams {
        n: None,
        eps: None,
        shards: None,
    };
    let mut tenant = match Tenant::create(log.id, log.alg, seed_base, &hello, cfg.shards, cfg.chunk)
    {
        Ok(t) => t,
        Err(e) => return out.fail(format!("replay of {}: {}", log.id, e.message)),
    };
    let query_line = format!("{{\"cmd\":\"query\",\"tenant\":\"{}\"}}", log.id);
    for (k, op) in log.ops.iter().enumerate() {
        let line = match op {
            Op::Ingest(i) => inputs.lines[*i].trim_end(),
            Op::Query(_) => query_line.as_str(),
        };
        let request = if traced {
            let t0 = Instant::now();
            black_box(Json::parse(line).ok());
            let t1 = Instant::now();
            let request = proto::parse_request(line);
            let t2 = Instant::now();
            layers.json += t1 - t0;
            layers.decode += (t2 - t1).saturating_sub(t1 - t0);
            match request {
                Ok(r) => Some(r),
                Err(e) => {
                    return out.fail(format!(
                        "{} request {k} does not decode: {}",
                        log.id, e.message
                    ))
                }
            }
        } else {
            None
        };
        let step = match (op, request) {
            (Op::Ingest(i), Some(Request::Ingest { updates, .. })) => {
                if updates != inputs.updates[*i] {
                    return out.fail(format!("{} ingest {k} decodes to other updates", log.id));
                }
                let r = ingest(&mut tenant, &updates, cfg.chunk, layers);
                let t0 = Instant::now();
                black_box(
                    obj(vec![
                        ("ok", Json::Bool(true)),
                        ("accepted", Json::from(updates.len() as u64)),
                        ("pending_chunks", Json::from(0u64)),
                    ])
                    .to_line(),
                );
                layers.encode += t0.elapsed();
                r
            }
            (Op::Ingest(i), None) => ingest(&mut tenant, &inputs.updates[*i], cfg.chunk, layers),
            (Op::Query(reply), Some(Request::Query { .. }) | None) => {
                match query_reply(&mut tenant, layers) {
                    Ok(expected) if expected == *reply => Ok(()),
                    Ok(expected) => Err(format!(
                        "daemon replied {reply} but offline gives {expected}"
                    )),
                    Err(e) => Err(e),
                }
            }
            (_, Some(other)) => Err(format!("decoded to an unexpected {other:?}")),
        };
        if let Err(e) = step {
            out.fail(format!("{} request {k}: {e}", log.id));
        }
    }
}

/// Replay every tenant against the daemon's replies; traced, return the
/// per-layer split.
pub fn check(
    logs: &[TenantLog; 2],
    inputs: &[Inputs; 2],
    seed_base: u64,
    traced: bool,
    out: &mut Outcome,
) -> Option<Split> {
    let start = Instant::now();
    let mut per_tenant: Vec<Layers> = Vec::with_capacity(2);
    for (log, inputs) in logs.iter().zip(inputs) {
        let mut layers = Layers::default();
        replay_tenant(log, inputs, seed_base, traced, &mut layers, out);
        per_tenant.push(layers);
    }
    if !traced {
        return None;
    }
    let wall = start.elapsed().as_secs_f64();
    let busy: f64 = per_tenant.iter().map(|l| l.total().as_secs_f64()).sum();
    let shares: Vec<String> = logs
        .iter()
        .zip(&per_tenant)
        .map(|(log, l)| format!("{} {:.1}%", log.alg, 100.0 * l.total().as_secs_f64() / busy))
        .collect();
    let sum = |f: fn(&Layers) -> Duration| per_tenant.iter().map(|l| f(l).as_secs_f64()).sum();
    Some(Split {
        json: sum(|l| l.json),
        decode: sum(|l| l.decode),
        validate: sum(|l| l.validate),
        apply: sum(|l| l.apply),
        query: sum(|l| l.query),
        encode: sum(|l| l.encode),
        wall,
        shares: shares.join(", "),
    })
}
