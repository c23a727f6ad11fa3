//! A server's threads are its shards and nothing else: the planner's
//! ticks and the coordinator's passes run on shard 0 between its waits,
//! so single-tenant and re-granting multi-tenant servers alike spawn
//! exactly `shards` threads, and a drain joins every one of them.

use arlo_core::engine::{ArloEngine, EngineConfig};
use arlo_runtime::models::ModelSpec;
use arlo_runtime::profile::profile_runtimes;
use arlo_runtime::runtime_set::RuntimeSet;
use arlo_serve::server::{ServeConfig, Server};
use arlo_serve::tenants::{SloClass, TenantSpec};
use std::io;
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

/// Threads of this process named by the server (`arlo-…`). A thread names
/// itself once it runs, so a count right after a spawn can come up short.
fn server_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("arlo-"))
        .count()
}

#[test]
fn every_server_runs_one_thread_per_shard_and_no_other() {
    type Spawn = fn() -> io::Result<Server>;
    let servers: [(&str, Spawn); 2] = [
        ("spawn", || {
            Server::spawn(engine(4), "127.0.0.1:0", config())
        }),
        ("spawn_multi", || {
            Server::spawn_multi(tenants(), "127.0.0.1:0", config())
        }),
    ];
    for (kind, spawn) in servers {
        let server = spawn().expect("bind loopback");
        let deadline = Instant::now() + Duration::from_secs(5);
        while server_threads() < SHARDS && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Let any other thread spawned with the shards name itself too, and
        // the planner tick a few times (2 ms apart at 100×) meanwhile.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(server_threads(), SHARDS, "{kind}: threads while serving");
        server.drain();
        assert_eq!(server_threads(), 0, "{kind}: threads after drain");
    }
}
