//! Deterministic synthetic load harness for the serve subsystem.
//!
//! [`build_mix`] expands a seeded [`LoadConfig`] into a fixed request
//! sequence — a mix of duplicate and unique jobs across several clients,
//! with client 0 carrying a priority skew — and [`run_pass`] replays it
//! over a [`ServeClient`] connection. Because the mix is a
//! pure function of the seed, replaying the same pass twice measures the
//! cold→warm cache transition exactly, and replaying it against two
//! different servers produces byte-identical payload streams.
//!
//! [`PassReport`] captures throughput, hit-rate, exact nearest-rank
//! latency quantiles, and per-client completion statistics; [`verify_against_direct`] re-executes every
//! unique job and compares its payload with the served one.

use crate::client::ServeClient;
use crate::protocol::{Request, Response, REASON_BREAKER_OPEN, REASON_DEADLINE, REASON_SHEDDING};
use cestim_exec::{canonical_string, Job};
use cestim_qa::XorShift64Star;
use cestim_sim::{EstimatorSpec, ExecJob, PredictorKind, RunConfig};
use cestim_workloads::WorkloadKind;
use serde::Value;
use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

/// Parameters of one synthetic load mix.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// PRNG seed; the whole mix is a pure function of it.
    pub seed: u64,
    /// Requests per pass.
    pub requests: usize,
    /// Distinct client identities (round-robin over requests).
    pub clients: usize,
    /// Percent of requests that re-issue an already-generated job.
    pub dup_percent: u32,
    /// Workload scale of generated jobs.
    pub scale: u32,
    /// Max in-flight requests (must stay at or below the server's
    /// per-shard queue depth to avoid rejects in the happy path).
    pub window: usize,
    /// Priority of client 0; all other clients run at priority 1, so
    /// the default of 10 exercises a 10:1 skew.
    pub vip_priority: u32,
    /// Per-request deadline forwarded to the server (0 = none).
    pub deadline_ms: u64,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            seed: 7,
            requests: 64,
            clients: 4,
            dup_percent: 60,
            scale: 1,
            window: 16,
            vip_priority: 10,
            deadline_ms: 0,
        }
    }
}

/// One pre-generated request of a load mix.
#[derive(Debug, Clone)]
pub struct MixItem {
    /// Index in the mix (the request id is derived from it per pass).
    pub index: usize,
    /// Issuing client index.
    pub client_idx: usize,
    /// Scheduling priority.
    pub priority: u32,
    /// The job to submit.
    pub job: ExecJob,
}

/// Client name for a mix client index.
pub fn client_name(idx: usize) -> String {
    format!("client{idx}")
}

fn gen_job(rng: &mut XorShift64Star, scale: u32) -> ExecJob {
    let workloads = WorkloadKind::all();
    let workload = workloads[rng.below(workloads.len() as u64) as usize];
    let predictor = match rng.below(3) {
        0 => PredictorKind::Gshare,
        1 => PredictorKind::SAg,
        _ => PredictorKind::Bimodal,
    };
    let cfg = RunConfig::paper(workload, scale, predictor);
    match rng.below(3) {
        0 => ExecJob::Run {
            cfg,
            specs: vec![EstimatorSpec::jrs_paper()],
        },
        1 => ExecJob::Distance { cfg, buckets: 64 },
        _ => ExecJob::Cluster {
            cfg,
            spec: EstimatorSpec::jrs_paper(),
            buckets: 64,
        },
    }
}

/// Expands a config into its fixed request sequence. Pure in the seed:
/// the same config always yields the same jobs in the same order.
pub fn build_mix(cfg: &LoadConfig) -> Vec<MixItem> {
    let mut rng = XorShift64Star::new(cfg.seed);
    let clients = cfg.clients.max(1);
    let mut pool: Vec<ExecJob> = Vec::new();
    let mut items = Vec::with_capacity(cfg.requests);
    for index in 0..cfg.requests {
        let client_idx = index % clients;
        let duplicate = !pool.is_empty() && rng.chance(u64::from(cfg.dup_percent.min(100)), 100);
        let job = if duplicate {
            pool[rng.below(pool.len() as u64) as usize].clone()
        } else {
            let job = gen_job(&mut rng, cfg.scale.max(1));
            pool.push(job.clone());
            job
        };
        items.push(MixItem {
            index,
            client_idx,
            priority: if client_idx == 0 { cfg.vip_priority } else { 1 },
            job,
        });
    }
    items
}

/// Measured outcome of one load pass.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// Pass tag ("cold", "warm", ...).
    pub pass: String,
    /// Requests in the mix.
    pub requests: usize,
    /// Terminal `result` responses received.
    pub completed: usize,
    /// Backpressure rejections observed (all retried).
    pub rejected: usize,
    /// Rejections carrying the load-shedding reason (subset of
    /// `rejected`); nonzero means the server ran degraded.
    pub shed: usize,
    /// Rejections carrying the deadline reason (subset of `rejected`).
    pub deadline_rejected: usize,
    /// Rejections carrying the circuit-breaker reason (subset of
    /// `rejected`).
    pub breaker_rejected: usize,
    /// Terminal `error` responses received.
    pub errors: usize,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
    /// Share of completed results served from the warm cache (0 when
    /// nothing completed).
    pub hit_rate: f64,
    /// Median latency (exact nearest rank over the pass's completed
    /// requests), nanoseconds.
    pub p50_nanos: u64,
    /// 95th-percentile latency, nanoseconds.
    pub p95_nanos: u64,
    /// 99th-percentile latency, nanoseconds.
    pub p99_nanos: u64,
    /// Max/min ratio of per-client mean completion index — the
    /// priority-skew fairness figure (≥ 1.0; higher means the
    /// high-priority client finished earlier relative to the rest).
    pub completion_spread: f64,
}

struct Pending {
    client_idx: usize,
    index: usize,
    started: Instant,
}

/// Replays `mix` over `client` as pass `pass`, collecting the first
/// payload seen per unique job into `payloads` (keyed by cache-key id)
/// for later [`verify_against_direct`].
///
/// # Errors
///
/// Returns any transport error, `InvalidData` for an unparseable
/// response line, or `TimedOut` when the server stops responding
/// mid-pass.
pub fn run_pass(
    client: &mut ServeClient,
    mix: &[MixItem],
    cfg: &LoadConfig,
    pass: &str,
    payloads: &mut HashMap<String, (ExecJob, Value)>,
) -> io::Result<PassReport> {
    const RECV_TIMEOUT: Duration = Duration::from_secs(120);
    const MAX_RETRIES: usize = 1000;

    // One latency per completed request: at most one per mix item.
    let mut latencies: Vec<u64> = Vec::with_capacity(mix.len());
    let clients = cfg.clients.max(1);
    let mut completed_per_client = vec![0usize; clients];
    let mut completion_index_sums = vec![0f64; clients];
    let mut pending: HashMap<String, Pending> = HashMap::new();
    let mut send_list: Vec<usize> = (0..mix.len()).collect();
    let mut next_send = 0usize;
    let mut completed = 0usize;
    let mut cache_hits = 0usize;
    let mut rejected = 0usize;
    let mut shed = 0usize;
    let mut deadline_rejected = 0usize;
    let mut breaker_rejected = 0usize;
    let mut errors = 0usize;
    let mut retries = 0usize;
    let window = cfg.window.max(1);
    let t0 = Instant::now();

    while next_send < send_list.len() || !pending.is_empty() {
        // Fill the in-flight window.
        while next_send < send_list.len() && pending.len() < window {
            let item = &mix[send_list[next_send]];
            next_send += 1;
            let id = format!("{pass}-{}", item.index);
            pending.insert(
                id.clone(),
                Pending {
                    client_idx: item.client_idx,
                    index: item.index,
                    started: Instant::now(),
                },
            );
            client.send_request(&Request::Run {
                id,
                client: client_name(item.client_idx),
                priority: item.priority,
                deadline_ms: cfg.deadline_ms,
                job: item.job.clone(),
            })?;
        }
        if pending.is_empty() {
            break;
        }
        match client.recv_response(RECV_TIMEOUT)? {
            Response::Accepted { .. } | Response::Started { .. } => {}
            Response::Result {
                id,
                cached,
                payload,
                ..
            } => {
                let Some(p) = pending.remove(&id) else {
                    continue;
                };
                let nanos = u64::try_from(p.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                latencies.push(nanos);
                completion_index_sums[p.client_idx] += completed as f64;
                completed_per_client[p.client_idx] += 1;
                completed += 1;
                if cached {
                    cache_hits += 1;
                }
                if let Some(index) = id.rsplit('-').next().and_then(|s| s.parse::<usize>().ok()) {
                    if let Some(item) = mix.get(index) {
                        payloads
                            .entry(item.job.cache_key().id())
                            .or_insert_with(|| (item.job.clone(), payload));
                    }
                }
            }
            Response::Rejected { id, reason, .. } => {
                // Backpressure: retry the item later in the pass.
                let Some(p) = pending.remove(&id) else {
                    continue;
                };
                rejected += 1;
                match reason.as_str() {
                    REASON_SHEDDING => shed += 1,
                    REASON_DEADLINE => deadline_rejected += 1,
                    REASON_BREAKER_OPEN => breaker_rejected += 1,
                    _ => {}
                }
                if retries < MAX_RETRIES {
                    retries += 1;
                    send_list.push(p.index);
                    // Give a degraded server room to drain below its
                    // low watermark instead of hammering the gate.
                    if reason == REASON_SHEDDING || reason == REASON_BREAKER_OPEN {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                } else {
                    errors += 1;
                }
            }
            Response::Error { id, .. } => {
                errors += 1;
                if let Some(id) = id {
                    pending.remove(&id);
                }
            }
            _ => {}
        }
    }

    let wall_nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    latencies.sort_unstable();
    // Mean position of each client's results in the completion order.
    let means: Vec<f64> = completed_per_client
        .iter()
        .zip(&completion_index_sums)
        .filter(|(done, _)| **done > 0)
        .map(|(done, sum)| (sum / *done as f64).max(0.5))
        .collect();
    let completion_spread = match (
        means.iter().cloned().fold(f64::INFINITY, f64::min),
        means.iter().cloned().fold(0.0f64, f64::max),
    ) {
        (min, max) if min.is_finite() && min > 0.0 => max / min,
        _ => 1.0,
    };
    Ok(PassReport {
        pass: pass.to_string(),
        requests: mix.len(),
        completed,
        rejected,
        shed,
        deadline_rejected,
        breaker_rejected,
        errors,
        throughput_rps: if wall_nanos == 0 {
            0.0
        } else {
            completed as f64 / (wall_nanos as f64 / 1e9)
        },
        hit_rate: if completed == 0 {
            0.0
        } else {
            cache_hits as f64 / completed as f64
        },
        p50_nanos: nearest_rank(&latencies, 0.50),
        p95_nanos: nearest_rank(&latencies, 0.95),
        p99_nanos: nearest_rank(&latencies, 0.99),
        completion_spread,
    })
}

/// The nearest-rank `q`-quantile of `sorted`: the smallest value with at
/// least a `q` share of the values at or below it (0 when empty).
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied().unwrap_or(0)
}

/// Outcome of [`verify_against_direct`].
#[derive(Debug, Clone, Copy)]
pub struct VerifyReport {
    /// Unique jobs re-executed directly.
    pub checked: usize,
    /// Payloads that differed from direct execution (must be 0).
    pub mismatches: usize,
}

/// Re-executes every unique job directly (the exact code path `repro`'s
/// executor runs) and compares canonical JSON bytes against the payload
/// the server returned.
pub fn verify_against_direct(payloads: &HashMap<String, (ExecJob, Value)>) -> VerifyReport {
    let mut checked = 0usize;
    let mut mismatches = 0usize;
    for (job, served) in payloads.values() {
        checked += 1;
        let direct = serde::to_value(&job.execute());
        if canonical_string(&direct) != canonical_string(served) {
            mismatches += 1;
        }
    }
    VerifyReport {
        checked,
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_quantiles_are_exact_nearest_ranks() {
        // 1..=100 ms: log2-bucket bounds would read 67.1 ms for the
        // median and 134.2 ms for p95 and p99.
        let sorted: Vec<u64> = (1..=100).map(|ms| ms * 1_000_000).collect();
        assert_eq!(nearest_rank(&sorted, 0.50), 50_000_000);
        assert_eq!(nearest_rank(&sorted, 0.95), 95_000_000);
        assert_eq!(nearest_rank(&sorted, 0.99), 99_000_000);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }

    #[test]
    fn mix_is_deterministic_and_skewed() {
        let cfg = LoadConfig::default();
        let a = build_mix(&cfg);
        let b = build_mix(&cfg);
        assert_eq!(a.len(), cfg.requests);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.job, y.job);
            assert_eq!(x.client_idx, y.client_idx);
            assert_eq!(x.priority, y.priority);
        }
        assert!(a.iter().any(|i| i.priority == cfg.vip_priority));
        assert!(a.iter().any(|i| i.priority == 1));
        // The duplicate knob produces real duplicates.
        let mut seen = std::collections::HashSet::new();
        let dups = a
            .iter()
            .filter(|i| !seen.insert(i.job.cache_key().id()))
            .count();
        assert!(dups > 0, "default mix should contain duplicates");
    }
}
