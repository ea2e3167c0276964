//! Overload-control and crash-recovery integration tests: load-shedding
//! hysteresis, deadline-aware dispatch, cooperative mid-execution
//! cancellation, per-client circuit breakers, health/ready probes,
//! journal rotation under load, and warm-restart recovery accounting.

use cestim_exec::FaultPlan;
use cestim_serve::protocol::{REASON_BREAKER_OPEN, REASON_DEADLINE, REASON_SHEDDING};
use cestim_serve::{
    BreakerConfig, InProcClient, Request, Response, ServeConfig, Server, ShedConfig,
};
use cestim_sim::{EstimatorSpec, ExecJob, PredictorKind, RunConfig};
use cestim_workloads::WorkloadKind;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cestim-overload-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A family of distinct quick jobs (distinct bucket counts → distinct
/// cache keys), so repeated submissions never hit the warm cache.
fn quick_job(n: u32) -> ExecJob {
    ExecJob::Distance {
        cfg: RunConfig::paper(WorkloadKind::Compress, 1, PredictorKind::Gshare),
        buckets: 16 + u64::from(n),
    }
}

/// A job slow enough to pin a worker for a while.
fn slow_job() -> ExecJob {
    ExecJob::Run {
        cfg: RunConfig::paper(WorkloadKind::M88ksim, 2, PredictorKind::McFarling),
        specs: vec![EstimatorSpec::jrs_paper()],
    }
}

fn run_request(id: &str, client: &str, deadline_ms: u64, job: ExecJob) -> Request {
    Request::Run {
        id: id.to_string(),
        client: client.to_string(),
        priority: 1,
        deadline_ms,
        job,
    }
}

/// Pumps responses until the admission verdict (accepted/rejected) for
/// `id` arrives.
fn await_admission(client: &InProcClient, id: &str) -> Response {
    loop {
        let resp = client.recv_timeout(WAIT).expect("server response");
        match &resp {
            Response::Accepted { id: rid, .. } | Response::Rejected { id: rid, .. }
                if rid == id =>
            {
                return resp;
            }
            Response::Error { id: Some(rid), .. } if rid == id => return resp,
            _ => {}
        }
    }
}

/// Pumps responses until the terminal result/error/rejection for `id`.
fn await_terminal(client: &InProcClient, id: &str) -> Response {
    loop {
        let resp = client.recv_timeout(WAIT).expect("server response");
        match &resp {
            Response::Result { id: rid, .. }
            | Response::Error { id: Some(rid), .. }
            | Response::Rejected { id: rid, .. }
                if rid == id =>
            {
                return resp;
            }
            _ => {}
        }
    }
}

fn stats(client: &InProcClient) -> serde::Value {
    client.send(Request::Stats);
    loop {
        if let Response::Stats(v) = client.recv_timeout(WAIT).expect("stats response") {
            return v;
        }
    }
}

#[test]
fn shedding_engages_at_high_watermark_and_releases_at_low() {
    // Capacity 4 with a 50/25 watermark pair: shedding starts once two
    // jobs are queued and stops only after the queue drains to one.
    // Every executed job carries an injected 500ms sleep, which pins the
    // single worker for a bounded, known time.
    let server = Server::start(ServeConfig {
        groups: 1,
        queue_depth: 4,
        shed: ShedConfig {
            high_pct: 50,
            low_pct: 25,
            p99_nanos: 0,
        },
        fault: FaultPlan {
            slow_every: 1,
            slow_ms: 500,
            ..FaultPlan::none()
        },
        ..ServeConfig::default()
    })
    .unwrap();
    let client = server.client();

    // Pin the single worker so queued depth is fully under our control.
    client.send(run_request("slow", "t", 0, quick_job(50)));
    loop {
        match client.recv_timeout(WAIT).unwrap() {
            Response::Started { id, .. } if id == "slow" => break,
            _ => {}
        }
    }

    let mut accepted = Vec::new();
    let mut shed = 0usize;
    for i in 0..5u32 {
        let id = format!("q{i}");
        client.send(run_request(&id, "t", 0, quick_job(i)));
        match await_admission(&client, &id) {
            Response::Accepted { .. } => accepted.push(id),
            Response::Rejected { reason, .. } => {
                assert_eq!(reason, REASON_SHEDDING, "small queue sheds before filling");
                shed += 1;
            }
            other => panic!("unexpected admission response: {other:?}"),
        }
    }
    assert_eq!(
        accepted.len(),
        2,
        "the gate admits up to the high watermark (2 of 4 slots)"
    );
    assert_eq!(shed, 3, "everything past the watermark is shed");

    // Drain everything; depth returns to zero, which is at or below the
    // low watermark, so the next submission is admitted again. Await in
    // completion order (single worker ⇒ FIFO): pin job first, then the
    // admitted queue — the helpers discard non-matching responses.
    let _ = await_terminal(&client, "slow");
    for id in &accepted {
        match await_terminal(&client, id) {
            Response::Result { .. } => {}
            other => panic!("queued job should complete, got {other:?}"),
        }
    }
    client.send(run_request("after", "t", 0, quick_job(99)));
    match await_admission(&client, "after") {
        Response::Accepted { .. } => {}
        other => panic!("drained server must admit again, got {other:?}"),
    }
    let _ = await_terminal(&client, "after");

    let s = stats(&client);
    assert_eq!(s["shed"].as_u64().unwrap(), 3);
    assert_eq!(
        s["degraded"].as_i64().unwrap(),
        0,
        "gate exits degraded mode once depth drains"
    );
    server.shutdown();
}

#[test]
fn expired_deadline_rejects_at_dequeue_without_executing() {
    let server = Server::start(ServeConfig {
        groups: 1,
        shed: ShedConfig {
            high_pct: 0,
            ..ShedConfig::default()
        },
        fault: FaultPlan {
            slow_every: 1,
            slow_ms: 300,
            ..FaultPlan::none()
        },
        ..ServeConfig::default()
    })
    .unwrap();
    let client = server.client();
    client.send(run_request("slow", "t", 0, quick_job(50)));
    loop {
        match client.recv_timeout(WAIT).unwrap() {
            Response::Started { id, .. } if id == "slow" => break,
            _ => {}
        }
    }
    // A 1ms budget cannot survive waiting behind the 300ms pin job.
    client.send(run_request("late", "t", 1, quick_job(0)));
    match await_admission(&client, "late") {
        Response::Accepted { .. } => {}
        other => panic!("queue has room, got {other:?}"),
    }
    match await_terminal(&client, "late") {
        Response::Rejected { reason, .. } => assert_eq!(reason, REASON_DEADLINE),
        other => panic!("expected deadline rejection, got {other:?}"),
    }
    let s = stats(&client);
    assert_eq!(s["deadline_rejected"].as_u64().unwrap(), 1);
    assert_eq!(
        s["executed"].as_u64().unwrap(),
        1,
        "only the pin job reached the engine; the expired ticket never did"
    );
    server.shutdown();
}

#[test]
fn mid_execution_deadline_cancels_cooperatively_and_frees_the_worker() {
    let server = Server::start(ServeConfig {
        groups: 1,
        shed: ShedConfig {
            high_pct: 0,
            ..ShedConfig::default()
        },
        // Every executed job first sleeps past the 50ms budget below, so
        // the overrun does not depend on how fast the simulator is.
        fault: FaultPlan {
            slow_every: 1,
            slow_ms: 120,
            ..FaultPlan::none()
        },
        ..ServeConfig::default()
    })
    .unwrap();
    let client = server.client();
    // Starts immediately (empty queue) and is already past its 50ms budget
    // when the simulation starts; the first cancel poll inside the hot
    // loop fires.
    client.send(run_request("doomed", "t", 50, slow_job()));
    match await_terminal(&client, "doomed") {
        Response::Error { code, message, .. } => {
            assert_eq!(code, "deadline-exceeded");
            assert!(
                message.contains("cestim-cancel"),
                "cancel panic message, got: {message}"
            );
        }
        other => panic!("expected deadline error, got {other:?}"),
    }
    // The worker survived and picks up new work.
    client.send(run_request("next", "t", 0, quick_job(1)));
    match await_terminal(&client, "next") {
        Response::Result { .. } => {}
        other => panic!("worker must be free after a cancel, got {other:?}"),
    }
    let s = stats(&client);
    assert_eq!(s["deadline_cancelled"].as_u64().unwrap(), 1);
    server.shutdown();
}

#[test]
fn breaker_opens_after_failures_probes_after_cooldown_and_recloses() {
    let cache_dir = temp_dir("breaker");
    // Pre-warm one result so a probe can succeed even though every
    // fresh execution is forced to panic by the fault plan.
    let good = quick_job(0);
    {
        use cestim_exec::Job;
        let cache = cestim_exec::DiskCache::open(&cache_dir).unwrap();
        let output = good.execute();
        cache
            .store(&good.cache_key(), &good.label(), &output)
            .unwrap();
    }
    let server = Server::start(ServeConfig {
        groups: 1,
        cache_dir: Some(cache_dir.clone()),
        breaker: BreakerConfig {
            threshold: 2,
            cooldown: Duration::from_millis(100),
        },
        fault: FaultPlan {
            panic_every: 1, // every executed (uncached) job crashes
            ..FaultPlan::none()
        },
        ..ServeConfig::default()
    })
    .unwrap();
    let client = server.client();

    // Two consecutive execution failures trip the client's breaker.
    for i in 1..=2u32 {
        let id = format!("bad{i}");
        client.send(run_request(&id, "flaky", 0, quick_job(i)));
        match await_terminal(&client, &id) {
            Response::Error { code, .. } => assert_eq!(code, "execution"),
            other => panic!("fault plan must crash the job, got {other:?}"),
        }
    }
    client.send(run_request("fast-fail", "flaky", 0, quick_job(3)));
    match await_admission(&client, "fast-fail") {
        Response::Rejected { reason, .. } => assert_eq!(reason, REASON_BREAKER_OPEN),
        other => panic!("open breaker must reject, got {other:?}"),
    }

    // After the cooldown one probe is admitted; the warm cache makes it
    // succeed, which closes the breaker for good.
    std::thread::sleep(Duration::from_millis(150));
    client.send(run_request("probe", "flaky", 0, good.clone()));
    match await_terminal(&client, "probe") {
        Response::Result { cached, .. } => assert!(cached, "probe is served warm"),
        other => panic!("half-open probe should pass, got {other:?}"),
    }
    client.send(run_request("healed", "flaky", 0, good));
    match await_terminal(&client, "healed") {
        Response::Result { .. } => {}
        other => panic!("breaker must be closed again, got {other:?}"),
    }

    let s = stats(&client);
    assert_eq!(s["breaker_opened"].as_u64().unwrap(), 1);
    assert_eq!(s["breaker_rejected"].as_u64().unwrap(), 1);
    assert_eq!(s["breakers_open"].as_u64().unwrap(), 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn health_and_ready_verbs_report_drain_state() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let client = server.client();
    client.send(Request::Health);
    match client.recv_timeout(WAIT).unwrap() {
        Response::Health {
            healthy,
            draining,
            degraded,
        } => {
            assert!(healthy);
            assert!(!draining);
            assert!(!degraded);
        }
        other => panic!("expected health, got {other:?}"),
    }
    client.send(Request::Ready);
    match client.recv_timeout(WAIT).unwrap() {
        Response::Ready { ready, queued } => {
            assert!(ready);
            assert_eq!(queued, 0);
        }
        other => panic!("expected ready, got {other:?}"),
    }
    // Draining flips readiness off while health stays answerable.
    server.begin_shutdown();
    client.send(Request::Health);
    match client.recv_timeout(WAIT).unwrap() {
        Response::Health {
            healthy, draining, ..
        } => {
            assert!(healthy);
            assert!(draining);
        }
        other => panic!("expected health, got {other:?}"),
    }
    client.send(Request::Ready);
    match client.recv_timeout(WAIT).unwrap() {
        Response::Ready { ready, .. } => assert!(!ready),
        other => panic!("expected ready, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn journal_rotates_under_load_and_keeps_serving() {
    let dirs = (temp_dir("rot-cache"), temp_dir("rot-journal"));
    let server = Server::start(ServeConfig {
        groups: 1,
        cache_dir: Some(dirs.0.clone()),
        journal_dir: Some(dirs.1.clone()),
        journal_max_bytes: 64, // rotate after every record or two
        ..ServeConfig::default()
    })
    .unwrap();
    let client = server.client();
    for i in 0..6u32 {
        let id = format!("r{i}");
        client.send(run_request(&id, "t", 0, quick_job(i)));
        match await_terminal(&client, &id) {
            Response::Result { .. } => {}
            other => panic!("job {i} should complete, got {other:?}"),
        }
    }
    let s = stats(&client);
    assert!(
        s["journal_rotations"].as_u64().unwrap() >= 1,
        "tiny threshold must force at least one rotation: {s}"
    );
    server.shutdown();
    assert!(
        dirs.1.join("run.prev.jsonl").exists(),
        "rotation leaves the previous segment behind"
    );
    assert!(dirs.1.join("run.jsonl").exists());
    let _ = std::fs::remove_dir_all(&dirs.0);
    let _ = std::fs::remove_dir_all(&dirs.1);
}

#[test]
fn restart_recovers_journaled_work_from_the_cache() {
    let dirs = (temp_dir("rec-cache"), temp_dir("rec-journal"));
    let cfg = ServeConfig {
        groups: 1,
        cache_dir: Some(dirs.0.clone()),
        journal_dir: Some(dirs.1.clone()),
        ..ServeConfig::default()
    };
    let first = Server::start(cfg.clone()).unwrap();
    let client = first.client();
    client.send(run_request("a", "t", 0, quick_job(0)));
    let first_payload = match await_terminal(&client, "a") {
        Response::Result { payload, .. } => payload,
        other => panic!("expected result, got {other:?}"),
    };
    first.shutdown();

    // A restarted incarnation re-serves the same request byte-identically
    // and books it as recovered (journaled by the previous incarnation).
    let second = Server::start(cfg).unwrap();
    let client = second.client();
    client.send(run_request("a2", "t", 0, quick_job(0)));
    match await_terminal(&client, "a2") {
        Response::Result {
            cached, payload, ..
        } => {
            assert!(cached, "recovered work is served warm");
            assert_eq!(
                cestim_exec::canonical_string(&payload),
                cestim_exec::canonical_string(&first_payload),
                "recovery must be byte-identical"
            );
        }
        other => panic!("expected result, got {other:?}"),
    }
    let s = stats(&client);
    assert_eq!(s["recovered"].as_u64().unwrap(), 1);
    assert!(s["journal_prior_jobs"].as_u64().unwrap() >= 1);
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dirs.0);
    let _ = std::fs::remove_dir_all(&dirs.1);
}
