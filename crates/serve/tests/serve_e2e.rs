//! End-to-end server tests: cold/warm cache behavior, payload identity
//! with direct execution, backpressure, GC sweeps, journaling, and the
//! TCP front end.

use cestim_exec::{canonical_string, CacheKey, DiskCache, FaultPlan, Job};
use cestim_obs::span::{SpanCollector, SpanRecord};
use cestim_obs::Registry;
use cestim_serve::ServeClient;
use cestim_serve::{Request, RequestLimits, Response, ServeConfig, Server, ShedConfig};
use cestim_sim::{EstimatorSpec, ExecJob, PredictorKind, RunConfig};
use cestim_workloads::WorkloadKind;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cestim-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_job() -> ExecJob {
    ExecJob::Distance {
        cfg: RunConfig::paper(WorkloadKind::Compress, 1, PredictorKind::Gshare),
        buckets: 16,
    }
}

fn run_request(id: &str, client: &str, priority: u32, job: ExecJob) -> Request {
    Request::Run {
        id: id.to_string(),
        client: client.to_string(),
        priority,
        deadline_ms: 0,
        job,
    }
}

/// Drains responses for `id` until its terminal result/error arrives.
fn await_terminal(client: &cestim_serve::InProcClient, id: &str) -> Response {
    loop {
        let resp = client.recv_timeout(WAIT).expect("server response");
        match &resp {
            Response::Result { id: rid, .. } | Response::Error { id: Some(rid), .. }
                if rid == id =>
            {
                return resp;
            }
            _ => {}
        }
    }
}

#[test]
fn cold_then_warm_run_matches_direct_execution() {
    let cache_dir = temp_dir("warm");
    let server = Server::start(ServeConfig {
        cache_dir: Some(cache_dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let client = server.client();
    let job = quick_job();

    client.send(run_request("cold", "t", 1, job.clone()));
    // Response order per request is accepted → started → result.
    match client.recv_timeout(WAIT).unwrap() {
        Response::Accepted { id, .. } => assert_eq!(id, "cold"),
        other => panic!("expected accepted, got {other:?}"),
    }
    match client.recv_timeout(WAIT).unwrap() {
        Response::Started { id, .. } => assert_eq!(id, "cold"),
        other => panic!("expected started, got {other:?}"),
    }
    let cold_payload = match client.recv_timeout(WAIT).unwrap() {
        Response::Result {
            id,
            cached,
            payload,
            ..
        } => {
            assert_eq!(id, "cold");
            assert!(!cached, "first run must execute");
            payload
        }
        other => panic!("expected result, got {other:?}"),
    };

    client.send(run_request("warm", "t", 1, job.clone()));
    let warm = await_terminal(&client, "warm");
    let warm_payload = match warm {
        Response::Result {
            cached, payload, ..
        } => {
            assert!(cached, "second identical run must hit the cache");
            payload
        }
        other => panic!("expected result, got {other:?}"),
    };

    // Server payloads are byte-identical to direct execution.
    let direct = serde::to_value(&job.execute());
    assert_eq!(canonical_string(&cold_payload), canonical_string(&direct));
    assert_eq!(canonical_string(&warm_payload), canonical_string(&direct));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn io_fault_skips_the_warm_entry_and_books_the_failed_store() {
    // `serve --fault io:N` reaches the cache: the faulted request skips
    // its pre-warmed entry, re-executes, and its store is counted as a
    // failure.
    let cache_dir = temp_dir("io-fault");
    let job = quick_job();
    let output = job.execute();
    DiskCache::open(&cache_dir)
        .unwrap()
        .store(&job.cache_key(), &job.label(), &output)
        .unwrap();
    let server = Server::start(ServeConfig {
        cache_dir: Some(cache_dir.clone()),
        fault: FaultPlan {
            io_every: 1,
            ..FaultPlan::none()
        },
        ..ServeConfig::default()
    })
    .unwrap();
    let client = server.client();
    client.send(run_request("io", "t", 1, job));
    match await_terminal(&client, "io") {
        Response::Result {
            cached, payload, ..
        } => {
            assert!(!cached, "an io fault must skip the warm entry");
            assert_eq!(
                canonical_string(&payload),
                canonical_string(&serde::to_value(&output))
            );
        }
        other => panic!("expected result, got {other:?}"),
    }
    let snap = server.registry().snapshot();
    assert_eq!(snap.counter_value("serve.executed"), Some(1));
    assert_eq!(snap.counter_value("exec.jobs.cache_hits"), Some(0));
    // The executor's counters are the one copy; the server shadows none.
    for shadow in [
        "serve.cache_hits",
        "serve.deadline.cancelled",
        "serve.recovered",
    ] {
        assert_eq!(snap.counter_value(shadow), None, "{shadow} is registered");
    }
    assert_eq!(snap.counter_value("exec.cache.store_errors"), Some(1));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn request_spans_parent_the_executor_stages() {
    let cache_dir = temp_dir("spans");
    let spans = SpanCollector::new();
    let server = Server::start_with(
        ServeConfig {
            groups: 1,
            cache_dir: Some(cache_dir.clone()),
            ..ServeConfig::default()
        },
        Registry::new(),
        spans.clone(),
    )
    .unwrap();
    let client = server.client();
    for id in ["cold", "warm"] {
        client.send(run_request(id, "t", 1, quick_job()));
        match await_terminal(&client, id) {
            Response::Result { .. } => {}
            other => panic!("expected result, got {other:?}"),
        }
    }
    // Shutdown joins the worker, which flushes its span buffer.
    server.shutdown();
    let recs = spans.drain();
    let children = |parent: &SpanRecord| -> Vec<&SpanRecord> {
        recs.iter().filter(|r| r.parent == parent.id).collect()
    };
    let has = |r: &SpanRecord, k: &str, v: &str| r.labels.contains(&(k.into(), v.into()));
    let request = |cached: &str| {
        recs.iter()
            .find(|r| r.name == "serve.request" && has(r, "cached", cached))
            .unwrap_or_else(|| panic!("no serve.request with cached={cached}"))
    };

    // Warm: the request span parents a hitting probe and no attempt.
    let warm = children(request("true"));
    assert!(warm
        .iter()
        .any(|r| r.name == "exec.cache.probe" && has(r, "hit", "true")));
    assert!(!warm.iter().any(|r| r.name == "exec.attempt"));

    // Cold: a missing probe, then the attempt (parenting the simulation),
    // then the store.
    let cold = children(request("false"));
    let named = |name: &str| {
        *cold
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("cold request has no {name} child"))
    };
    let probe = named("exec.cache.probe");
    let attempt = named("exec.attempt");
    let store = named("exec.cache.store");
    assert!(has(probe, "hit", "false"));
    assert!(has(attempt, "outcome", "ok"));
    assert!(children(attempt).iter().any(|r| r.name == "sim.job"));
    assert!(probe.end_nanos <= attempt.start_nanos);
    assert!(attempt.end_nanos <= store.start_nanos);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn backpressure_rejects_when_shard_queue_is_full() {
    // One worker, one queue slot: while the worker chews a slow job,
    // the second submission occupies the slot and later ones bounce.
    // Shedding is disabled so the hard queue-full path is what rejects
    // (at capacity 1 the shed watermark would otherwise fire first).
    let server = Server::start(ServeConfig {
        groups: 1,
        queue_depth: 1,
        shed: ShedConfig {
            high_pct: 0,
            ..ShedConfig::default()
        },
        ..ServeConfig::default()
    })
    .unwrap();
    let client = server.client();
    let slow = ExecJob::Run {
        cfg: RunConfig::paper(WorkloadKind::M88ksim, 2, PredictorKind::McFarling),
        specs: vec![EstimatorSpec::jrs_paper()],
    };
    client.send(run_request("slow", "a", 1, slow));
    // Wait until the worker has actually started the slow job, so the
    // queue slot is free for exactly one follow-up.
    loop {
        match client.recv_timeout(WAIT).unwrap() {
            Response::Started { id, .. } if id == "slow" => break,
            _ => {}
        }
    }
    let mut accepted = 0;
    let mut rejected = 0;
    for i in 0..4 {
        client.send(run_request(&format!("q{i}"), "a", 1, quick_job()));
        match client.recv_timeout(WAIT).unwrap() {
            Response::Accepted { .. } => accepted += 1,
            Response::Rejected {
                reason,
                queue_depth,
                ..
            } => {
                assert_eq!(reason, "queue-full");
                assert_eq!(queue_depth, 1);
                rejected += 1;
            }
            other => panic!("expected accepted/rejected, got {other:?}"),
        }
    }
    assert_eq!(accepted, 1, "exactly one queue slot was free");
    assert_eq!(rejected, 3, "the rest must bounce with backpressure");
    server.shutdown();
}

#[test]
fn gc_sweep_removes_stale_and_keeps_fresh() {
    let cache_dir = temp_dir("gc");
    // Plant a stale entry under a foreign schema salt.
    {
        let cache = DiskCache::open(&cache_dir).unwrap();
        let stale_key = CacheKey {
            schema: 0xdead_beef,
            content: 42,
        };
        cache
            .store(&stale_key, "stale", &serde_json::json!({"old": true}))
            .unwrap();
        assert_eq!(cache.len().unwrap(), 1);
    }
    let server = Server::start(ServeConfig {
        cache_dir: Some(cache_dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let client = server.client();

    // Create a fresh entry, then sweep.
    client.send(run_request("fresh", "t", 1, quick_job()));
    let Response::Result { cached: false, .. } = await_terminal(&client, "fresh") else {
        panic!("fresh run must execute");
    };
    client.send(Request::CacheGc);
    match client.recv_timeout(WAIT).unwrap() {
        Response::Gc { removed } => assert_eq!(removed, 1, "exactly the stale entry"),
        other => panic!("expected gc, got {other:?}"),
    }
    // The fresh entry survived: an identical run is a warm hit.
    client.send(run_request("again", "t", 1, quick_job()));
    let Response::Result { cached: true, .. } = await_terminal(&client, "again") else {
        panic!("fresh entry must survive the sweep");
    };
    server.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn scheduled_gc_runs_every_n_admissions() {
    let cache_dir = temp_dir("gc-sched");
    {
        let cache = DiskCache::open(&cache_dir).unwrap();
        for content in 0..3u64 {
            let stale = CacheKey {
                schema: 0xbad0 + content,
                content,
            };
            cache
                .store(&stale, "stale", &serde_json::json!({"n": content}))
                .unwrap();
        }
    }
    let server = Server::start(ServeConfig {
        cache_dir: Some(cache_dir.clone()),
        gc_every: 1, // sweep on every admission
        ..ServeConfig::default()
    })
    .unwrap();
    let client = server.client();
    client.send(run_request("r", "t", 1, quick_job()));
    let _ = await_terminal(&client, "r");
    client.send(Request::Stats);
    let stats = loop {
        if let Response::Stats(v) = client.recv_timeout(WAIT).unwrap() {
            break v;
        }
    };
    assert!(stats.get("gc_sweeps").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(stats.get("gc_removed").unwrap().as_u64().unwrap(), 3);
    server.shutdown();
    let cache = DiskCache::open(&cache_dir).unwrap();
    assert_eq!(cache.len().unwrap(), 1, "only the fresh result remains");
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn journal_streams_job_outcomes() {
    let dirs = (temp_dir("journal-cache"), temp_dir("journal"));
    let server = Server::start(ServeConfig {
        cache_dir: Some(dirs.0.clone()),
        journal_dir: Some(dirs.1.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let client = server.client();
    client.send(run_request("a", "t", 1, quick_job()));
    let _ = await_terminal(&client, "a");
    client.send(run_request("b", "t", 1, quick_job()));
    let _ = await_terminal(&client, "b");
    server.shutdown();
    let text = std::fs::read_to_string(dirs.1.join("run.jsonl")).unwrap();
    assert!(text.contains("\"ok\""), "first run journaled as ok: {text}");
    assert!(
        text.contains("\"cached\""),
        "second run journaled as cached: {text}"
    );
    let _ = std::fs::remove_dir_all(&dirs.0);
    let _ = std::fs::remove_dir_all(&dirs.1);
}

#[test]
fn malformed_lines_get_structured_errors_and_server_survives() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let client = server.client();
    let cases: &[(&[u8], &str)] = &[
        (b"{nope", "malformed-json"),
        (&[0xff, 0xfe, 0x00], "malformed-json"),
        (b"[1,2,3]", "bad-request"),
        (br#"{"op":"run","id":"x","job":{"What":{}}}"#, "bad-request"),
    ];
    for (bytes, want) in cases {
        client.send_line(bytes);
        match client.recv_timeout(WAIT).unwrap() {
            Response::Error { code, .. } => assert_eq!(&code, want),
            other => panic!("expected error, got {other:?}"),
        }
    }
    // Oversized line.
    client.send_line(&vec![b'a'; cestim_serve::MAX_LINE_BYTES + 1]);
    match client.recv_timeout(WAIT).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, "oversized"),
        other => panic!("expected error, got {other:?}"),
    }
    // Out-of-bounds specs fail validation on both submission paths.
    let oversize_job = || {
        let mut cfg = RunConfig::paper(WorkloadKind::Compress, 1, PredictorKind::Gshare);
        cfg.scale = RequestLimits::default().max_scale + 1;
        ExecJob::Distance { cfg, buckets: 16 }
    };
    client.send(run_request("big", "t", 1, oversize_job()));
    match client.recv_timeout(WAIT).unwrap() {
        Response::Error { id, code, .. } => {
            assert_eq!(id.as_deref(), Some("big"));
            assert_eq!(code, "invalid-spec");
        }
        other => panic!("expected error, got {other:?}"),
    }
    let line = cestim_serve::render_request(&run_request("big2", "t", 1, oversize_job()));
    client.send_line(line.as_bytes());
    match client.recv_timeout(WAIT).unwrap() {
        Response::Error { id, code, .. } => {
            assert_eq!(id.as_deref(), Some("big2"));
            assert_eq!(code, "invalid-spec");
        }
        other => panic!("expected error, got {other:?}"),
    }
    // The server is still healthy.
    client.send(Request::Ping);
    assert_eq!(client.recv_timeout(WAIT).unwrap(), Response::Pong);
    server.shutdown();
}

#[test]
fn unknown_family_names_get_invalid_spec_on_both_paths() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let client = server.client();

    // In-proc: a run request whose job names a predictor this build
    // does not know. The envelope is well-formed, so the rejection is
    // a spec error, not a bad request.
    let bad_predictor = cestim_serve::render_request(&run_request("p", "t", 1, quick_job()))
        .replace("\"Gshare\"", "\"Zephyr\"");
    client.send_line(bad_predictor.as_bytes());
    match client.recv_timeout(WAIT).unwrap() {
        Response::Error { id, code, message } => {
            assert_eq!(id.as_deref(), Some("p"));
            assert_eq!(code, "invalid-spec");
            assert!(message.contains("Zephyr"), "{message}");
        }
        other => panic!("expected error, got {other:?}"),
    }

    // Same for an unknown estimator family.
    let bad_estimator = cestim_serve::render_request(&run_request(
        "e",
        "t",
        1,
        ExecJob::Run {
            cfg: RunConfig::paper(WorkloadKind::Compress, 1, PredictorKind::Gshare),
            specs: vec![EstimatorSpec::AlwaysLow],
        },
    ))
    .replace("\"AlwaysLow\"", "\"Oracular\"");
    client.send_line(bad_estimator.as_bytes());
    match client.recv_timeout(WAIT).unwrap() {
        Response::Error { id, code, .. } => {
            assert_eq!(id.as_deref(), Some("e"));
            assert_eq!(code, "invalid-spec");
        }
        other => panic!("expected error, got {other:?}"),
    }

    // TCP front end: the same unknown-predictor line gets the same
    // structured rejection and the connection stays usable.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::sync::Arc::new(server);
    let acceptor = {
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || server.serve_tcp(listener))
    };
    let mut conn = ServeClient::connect(&addr).unwrap();
    conn.send_raw_line(&bad_predictor).unwrap();
    match conn.recv_response(WAIT).unwrap() {
        Response::Error { id, code, .. } => {
            assert_eq!(id.as_deref(), Some("p"));
            assert_eq!(code, "invalid-spec");
        }
        other => panic!("expected error, got {other:?}"),
    }
    conn.send_request(&Request::Ping).unwrap();
    assert_eq!(conn.recv_response(WAIT).unwrap(), Response::Pong);

    conn.send_request(&Request::Shutdown).unwrap();
    loop {
        match conn.recv_response(WAIT) {
            Ok(Response::ShuttingDown) | Err(_) => break,
            Ok(_) => {}
        }
    }
    acceptor.join().unwrap().unwrap();
    match std::sync::Arc::try_unwrap(server) {
        Ok(server) => server.shutdown(),
        Err(_) => panic!("acceptor retained the server"),
    }
}

#[test]
fn tcp_front_end_serves_and_shuts_down() {
    let cache_dir = temp_dir("tcp");
    let server = Server::start(ServeConfig {
        cache_dir: Some(cache_dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::sync::Arc::new(server);
    let acceptor = {
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || server.serve_tcp(listener))
    };

    let mut conn = ServeClient::connect(&addr).unwrap();
    let job = quick_job();
    conn.send_request(&run_request("t1", "net", 2, job.clone()))
        .unwrap();
    let payload = loop {
        match conn.recv_response(WAIT).unwrap() {
            Response::Result { id, payload, .. } => {
                assert_eq!(id, "t1");
                break payload;
            }
            Response::Error { .. } => panic!("unexpected error"),
            _ => {}
        }
    };
    let direct = serde::to_value(&job.execute());
    assert_eq!(canonical_string(&payload), canonical_string(&direct));

    // A raw malformed line over TCP yields a structured error.
    conn.send_request(&Request::Ping).unwrap();
    assert_eq!(conn.recv_response(WAIT).unwrap(), Response::Pong);

    conn.send_request(&Request::Shutdown).unwrap();
    loop {
        match conn.recv_response(WAIT) {
            Ok(Response::ShuttingDown) | Err(_) => break,
            Ok(_) => {}
        }
    }
    acceptor.join().unwrap().unwrap();
    match std::sync::Arc::try_unwrap(server) {
        Ok(server) => server.shutdown(),
        Err(_) => panic!("acceptor retained the server"),
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}
