//! Network-chaos and crash-recovery end-to-end tests: the resilient
//! client must heal a hostile network (seeded drops, truncation,
//! delays, garbage, resets via [`cestim_serve::ChaosProxy`]), heal
//! deterministic worker crashes, stay byte-identical through slow
//! workers, and survive a
//! `kill -9` of the server binary with byte-identical re-serving.

use cestim_exec::{canonical_string, FaultPlan, Job};
use cestim_serve::{ChaosPlan, ChaosProxy, Response, ServeClient, ServeConfig, Server};
use cestim_sim::{ExecJob, PredictorKind, RunConfig};
use cestim_workloads::WorkloadKind;
use serde::Value;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cestim-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_job(n: u64) -> ExecJob {
    ExecJob::Distance {
        cfg: RunConfig::paper(WorkloadKind::Compress, 1, PredictorKind::Gshare),
        buckets: 16 + n,
    }
}

/// Starts an in-process server plus a TCP front end on an ephemeral
/// port; returns the server handle, its address, and the acceptor.
fn start_tcp(cfg: ServeConfig) -> (Arc<Server>, SocketAddr, std::thread::JoinHandle<()>) {
    let server = Arc::new(Server::start(cfg).unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let acceptor = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = server.serve_tcp(listener);
        })
    };
    (server, addr, acceptor)
}

fn stop_tcp(server: Arc<Server>, acceptor: std::thread::JoinHandle<()>) {
    server.begin_shutdown();
    acceptor.join().unwrap();
    match Arc::try_unwrap(server) {
        Ok(server) => server.shutdown(),
        Err(_) => panic!("acceptor retained the server"),
    }
}

fn direct_payload(job: &ExecJob) -> Value {
    serde::to_value(&job.execute())
}

#[test]
fn client_heals_standard_network_chaos_to_byte_identical_payloads() {
    let cache_dir = temp_dir("net");
    let (server, addr, acceptor) = start_tcp(ServeConfig {
        cache_dir: Some(cache_dir.clone()),
        ..ServeConfig::default()
    });
    let mut proxy = ChaosProxy::start(addr, ChaosPlan::standard(0xbad_cab1e)).unwrap();
    let mut client = ServeClient::new(proxy.addr());

    // A mix of unique and duplicate jobs, all driven through the fault
    // matrix; every payload must equal direct execution byte-for-byte.
    let jobs: Vec<ExecJob> = (0..6).map(quick_job).collect();
    for (i, job) in jobs.iter().enumerate().chain(jobs.iter().enumerate()) {
        let payload = client
            .run_job(&format!("net{i}-{}", client.report().attempts), job)
            .expect("chaos must be healed, not fatal");
        assert_eq!(
            canonical_string(&payload),
            canonical_string(&direct_payload(job)),
            "job {i} payload diverged under network chaos"
        );
    }
    assert!(
        proxy.stats().total_faults() > 0,
        "the standard plan must actually inject faults"
    );
    proxy.stop();
    stop_tcp(server, acceptor);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn client_heals_deterministic_worker_crashes_by_retry() {
    let cache_dir = temp_dir("crash");
    // Every 2nd executed job panics inside the worker; the client's
    // idempotent retry re-submits until an execution slot succeeds.
    let (server, addr, acceptor) = start_tcp(ServeConfig {
        cache_dir: Some(cache_dir.clone()),
        fault: FaultPlan {
            panic_every: 2,
            ..FaultPlan::none()
        },
        ..ServeConfig::default()
    });
    let mut client = ServeClient::new(addr);
    for i in 0..6u64 {
        let job = quick_job(100 + i);
        let payload = client
            .run_job(&format!("crash{i}"), &job)
            .expect("worker crashes must be healed by retry");
        assert_eq!(
            canonical_string(&payload),
            canonical_string(&direct_payload(&job)),
            "job {i} payload diverged across worker crashes"
        );
    }
    assert!(
        client.report().exec_errors > 0,
        "the fault plan must have crashed at least one execution"
    );
    stop_tcp(server, acceptor);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn slow_workers_serve_byte_identical_payloads() {
    let cache_dir = temp_dir("slow");
    let (server, addr, acceptor) = start_tcp(ServeConfig {
        cache_dir: Some(cache_dir.clone()),
        fault: FaultPlan {
            slow_every: 2,
            slow_ms: 400,
            ..FaultPlan::none()
        },
        ..ServeConfig::default()
    });
    let mut client = ServeClient::new(addr);
    for i in 0..4u64 {
        let job = quick_job(200 + i);
        let payload = client.run_job(&format!("slow{i}"), &job).unwrap();
        assert_eq!(
            canonical_string(&payload),
            canonical_string(&direct_payload(&job)),
            "job {i} payload diverged behind a slow worker"
        );
    }
    assert_eq!(
        client.report().attempts,
        4,
        "400ms slow slots finish inside the receive window, so none is retried: {:?}",
        client.report()
    );
    stop_tcp(server, acceptor);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Spawns the real `serve` binary on an ephemeral port and parses the
/// bound address from its startup line.
fn spawn_serve_bin(
    cache_dir: &std::path::Path,
    journal_dir: &std::path::Path,
) -> (
    std::process::Child,
    std::io::BufReader<std::process::ChildStdout>,
    SocketAddr,
) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--groups",
            "1",
            "--cache-dir",
            cache_dir.to_str().unwrap(),
            "--journal-dir",
            journal_dir.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve binary");
    let mut reader = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = std::io::BufRead::read_line(&mut reader, &mut line).expect("serve stdout");
        assert!(n > 0, "serve exited before announcing its address");
        if let Some(rest) = line.trim().strip_prefix("[serve] listening on ") {
            let text = rest.split_whitespace().next().unwrap();
            break text.parse::<SocketAddr>().expect("parse bound address");
        }
    };
    (child, reader, addr)
}

#[test]
fn kill_dash_nine_then_restart_reserves_byte_identically() {
    let dirs = (temp_dir("kill-cache"), temp_dir("kill-journal"));
    std::fs::create_dir_all(&dirs.0).unwrap();
    std::fs::create_dir_all(&dirs.1).unwrap();
    let jobs: Vec<ExecJob> = (300..304).map(quick_job).collect();

    // First incarnation: complete all jobs, then die without warning.
    let (mut child, _stdout, addr) = spawn_serve_bin(&dirs.0, &dirs.1);
    let mut client = ServeClient::new(addr);
    let mut first_payloads = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        first_payloads.push(client.run_job(&format!("pre{i}"), job).unwrap());
    }
    child.kill().expect("kill -9 the server");
    let _ = child.wait();

    // Second incarnation over the same cache + journal: byte-identical
    // re-serving, booked as recovered work.
    let (mut child, _stdout, addr) = spawn_serve_bin(&dirs.0, &dirs.1);
    let mut client = ServeClient::new(addr);
    for (i, job) in jobs.iter().enumerate() {
        let payload = client.run_job(&format!("post{i}"), job).unwrap();
        assert_eq!(
            canonical_string(&payload),
            canonical_string(&first_payloads[i]),
            "job {i} not re-served byte-identically after kill -9"
        );
        assert_eq!(
            canonical_string(&payload),
            canonical_string(&direct_payload(job)),
            "job {i} diverged from direct execution after recovery"
        );
    }
    let stats = client.stats().expect("stats after recovery");
    assert_eq!(
        stats["recovered"].as_u64().unwrap(),
        jobs.len() as u64,
        "every pre-kill job must be counted as recovered: {stats}"
    );
    assert!(
        stats["journal_prior_jobs"].as_u64().unwrap() >= jobs.len() as u64,
        "the resumed journal must know the prior jobs: {stats}"
    );
    // Health answers on the recovered instance too.
    match client.health().expect("health after recovery") {
        Response::Health { healthy, .. } => assert!(healthy),
        other => panic!("expected health, got {other:?}"),
    }
    child.kill().expect("stop the second incarnation");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dirs.0);
    let _ = std::fs::remove_dir_all(&dirs.1);
}
