//! A server's threads are its shards and nothing else: the planner's
//! ticks and the coordinator's passes run on shard 0 between its waits,
//! so single-tenant and re-granting multi-tenant servers alike spawn
//! exactly `shards` threads, and a drain joins every one of them. Each
//! shard runs at 1 ns timer slack, so its timed waits end at their
//! deadlines.

use arlo_core::engine::{ArloEngine, EngineConfig};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::profile_runtimes;
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::server::{ServeConfig, Server};
use arlo_serve::tenants::{SloClass, TenantSpec};
use std::io;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

const SLO_MS: f64 = 150.0;
const SHARDS: usize = 2;

fn engine(gpus: u32) -> ArloEngine {
    let family = RuntimeSet::natural(ModelSpec::bert_base());
    let profiles = profile_runtimes(&family.compile(), SLO_MS, 512);
    let mut counts = vec![0u32; profiles.len()];
    *counts.last_mut().expect("non-empty") = gpus;
    ArloEngine::new(profiles, counts, EngineConfig::paper_default(SLO_MS))
}

fn tenants() -> Vec<(TenantSpec, ArloEngine)> {
    ["a", "b"]
        .into_iter()
        .map(|name| {
            let spec = TenantSpec::new(name, SloClass::Interactive, SLO_MS);
            (spec, engine(2))
        })
        .collect()
}

fn config() -> ServeConfig {
    ServeConfig {
        time_scale: 100,
        shards: SHARDS,
        ..ServeConfig::new(4)
    }
}

type Spawn = fn() -> io::Result<Server>;

/// Every way to start a server.
const SPAWNS: [(&str, Spawn); 2] = [
    ("spawn", || {
        Server::spawn(engine(4), "127.0.0.1:0", config())
    }),
    ("spawn_multi", || {
        Server::spawn_multi(tenants(), "127.0.0.1:0", config())
    }),
];

/// Held by each test for its whole run: every test here reads the whole
/// process's thread list, which another test's server would change.
fn one_server_at_a_time() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `(thread id, name)` of each thread of this process named by the server
/// (`arlo-…`). A thread names itself once it runs, so a list taken right
/// after a spawn can come up short.
fn server_threads() -> Vec<(String, String)> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| {
            let task = task.ok()?;
            let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
            let tid = task.file_name().into_string().ok()?;
            Some((tid, comm.trim_end().to_owned()))
        })
        .filter(|(_, name)| name.starts_with("arlo-"))
        .collect()
}

/// Spawn a server of `kind`, and wait until its shards have named
/// themselves, the planner has ticked a few times (2 ms apart at 100×) and
/// any other thread spawned with the shards could name itself too.
fn serving(kind: &str, spawn: Spawn) -> Server {
    let server = spawn().unwrap_or_else(|e| panic!("{kind}: bind loopback: {e}"));
    let deadline = Instant::now() + Duration::from_secs(5);
    while server_threads().len() < SHARDS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(50));
    server
}

#[test]
fn every_server_runs_one_thread_per_shard_and_no_other() {
    let _alone = one_server_at_a_time();
    for (kind, spawn) in SPAWNS {
        let server = serving(kind, spawn);
        assert_eq!(
            server_threads().len(),
            SHARDS,
            "{kind}: threads while serving"
        );
        server.drain();
        assert_eq!(server_threads().len(), 0, "{kind}: threads after drain");
    }
}

#[test]
fn every_shard_thread_runs_at_1ns_timer_slack() {
    let _alone = one_server_at_a_time();
    for (kind, spawn) in SPAWNS {
        let server = serving(kind, spawn);
        let shards: Vec<_> = server_threads()
            .into_iter()
            .filter(|(_, name)| name.starts_with("arlo-shard-"))
            .collect();
        assert_eq!(shards.len(), SHARDS, "{kind}: {shards:?}");
        for (tid, name) in shards {
            // `timerslack_ns` is listed under `/proc/<pid>` only, not under
            // `/proc/self/task/<tid>`; `/proc/<tid>` opens any thread's.
            match std::fs::read_to_string(format!("/proc/{tid}/timerslack_ns")) {
                Ok(slack) => assert_eq!(slack.trim(), "1", "{kind}: {name}'s timer slack"),
                // Reading another thread's slack needs `CAP_SYS_NICE`;
                // `server::tests::a_shard_thread_runs_at_min_timer_slack`
                // has the shard read its own, which needs none.
                Err(e) if e.kind() == io::ErrorKind::PermissionDenied => {
                    eprintln!("{kind}: {name}'s timer slack is not readable here: {e}");
                }
                Err(e) => panic!("{kind}: {name}'s timer slack: {e}"),
            }
        }
        server.drain();
    }
}
