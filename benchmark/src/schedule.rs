//! The seeded request schedule: what each connection sends and when it is
//! due. Lengths and Poisson arrivals come from `TraceSpec::twitter_stable`,
//! so the live workloads see the paper's testbed length mix. The same
//! `(seed, repetition)` always yields the same schedule, and the server
//! only ever sees these generated inputs.

use crate::workloads::{LiveWorkload, Load, CONNS};
use arlo_serve::protocol::{Frame, Sub};
use arlo_trace::workload::TraceSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One request of a connection's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    /// When the request is due, in nanoseconds after the common start.
    /// Members of one `BatchedSubmit` frame share the frame's due time
    /// (the arrival of its last member). Unused by the closed loop.
    pub due_ns: u64,
    /// Input length in tokens.
    pub length: u32,
    /// Tenant the request addresses.
    pub tenant: u32,
}

/// Ids of connection `conn` start here; a request's id is its
/// connection's base plus its index in that connection's send order.
pub fn id_base(conn: usize) -> u64 {
    (conn as u64) << 40
}

/// The frame that carries `reqs` with consecutive ids from `first_id`: a
/// `Submit` for one request, a v2 `BatchedSubmit` for more.
pub fn frame_of(reqs: &[Req], first_id: u64) -> Frame {
    if let [only] = reqs {
        Frame::Submit {
            id: first_id,
            length: only.length,
            tenant: only.tenant,
        }
    } else {
        Frame::BatchedSubmit {
            subs: reqs
                .iter()
                .enumerate()
                .map(|(i, r)| Sub {
                    id: first_id + i as u64,
                    length: r.length,
                    tenant: r.tenant,
                })
                .collect(),
        }
    }
}

/// Lengths the closed loop cycles through: it cannot know in advance how
/// many requests a run will complete.
const CLOSED_POOL: usize = 1 << 18;

/// Mix `seed`, a per-workload salt and the repetition into one RNG seed
/// (splitmix64 finalizer), so repetitions and workloads draw unrelated
/// streams from one `--seed`.
pub fn rep_seed(seed: u64, workload: &str, rep: usize) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for b in workload.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h = h.wrapping_add((rep as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Tenant of the `index`-th request under integer `mix` weights: position
/// `index mod Σw` of the weight cycle. Every full cycle is in exact
/// proportion.
pub fn tenant_of(index: u64, mix: &[u32]) -> u32 {
    let total: u64 = mix.iter().map(|&w| u64::from(w)).sum();
    let mut slot = index % total.max(1);
    for (tenant, &w) in mix.iter().enumerate() {
        if slot < u64::from(w) {
            return tenant as u32;
        }
        slot -= u64::from(w);
    }
    0
}

/// Per-connection schedules for one repetition lasting `secs` seconds
/// (warm-up included). The open loop deals the Poisson stream round-robin
/// over the connections and groups each connection's share into frames;
/// the closed loop gets a pool of lengths to cycle through.
pub fn build(workload: &LiveWorkload, seed: u64, rep: usize, secs: f64) -> Vec<Vec<Req>> {
    let mut rng = StdRng::seed_from_u64(rep_seed(seed, workload.name, rep));
    match workload.load {
        Load::Open {
            rate_rps,
            frame_subs,
        } => {
            let trace = TraceSpec::twitter_stable(rate_rps, secs).generate(&mut rng);
            let mut conns: Vec<Vec<Req>> = vec![Vec::new(); CONNS];
            for (i, r) in trace.requests().iter().enumerate() {
                conns[i % CONNS].push(Req {
                    due_ns: r.arrival,
                    length: r.length,
                    // Indexed per connection, so each connection carries
                    // the whole mix rather than a parity class of it.
                    tenant: tenant_of((i / CONNS) as u64, workload.tenant_mix),
                });
            }
            for reqs in &mut conns {
                reqs.truncate(reqs.len() / frame_subs * frame_subs);
                for frame in reqs.chunks_mut(frame_subs) {
                    let due = frame[frame.len() - 1].due_ns;
                    for r in frame {
                        r.due_ns = due;
                    }
                }
            }
            conns
        }
        Load::Closed { .. } => {
            // The rate only shapes inter-arrival gaps, which the closed
            // loop ignores; it is set so the pool fills in one virtual
            // second per 1k lengths.
            let secs = CLOSED_POOL as f64 * CONNS as f64 / 1000.0;
            let trace = TraceSpec::twitter_stable(1100.0, secs).generate(&mut rng);
            let lengths: Vec<u32> = trace.requests().iter().map(|r| r.length).collect();
            assert!(
                lengths.len() >= CLOSED_POOL * CONNS,
                "closed-loop length pool came up short"
            );
            (0..CONNS)
                .map(|c| {
                    lengths[c * CLOSED_POOL..(c + 1) * CLOSED_POOL]
                        .iter()
                        .enumerate()
                        .map(|(i, &length)| Req {
                            due_ns: 0,
                            length,
                            tenant: tenant_of(i as u64, workload.tenant_mix),
                        })
                        .collect()
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{all, Workload};

    fn live(name: &str) -> LiveWorkload {
        all()
            .into_iter()
            .find_map(|w| match w {
                Workload::Live(w) if w.name == name => Some(w),
                _ => None,
            })
            .expect("workload exists")
    }

    #[test]
    fn same_seed_gives_the_identical_schedule() {
        for name in ["single_open", "tenants_batched"] {
            let w = live(name);
            let a = build(&w, 7, 2, 0.5);
            let b = build(&w, 7, 2, 0.5);
            assert_eq!(a, b, "{name} schedule is not a function of the seed");
            assert_ne!(a, build(&w, 8, 2, 0.5), "{name} ignores the seed");
            assert_ne!(a, build(&w, 7, 3, 0.5), "{name} ignores the repetition");
        }
    }

    #[test]
    fn open_schedule_is_sorted_and_near_the_offered_rate() {
        let w = live("single_open");
        let conns = build(&w, 1, 0, 1.0);
        assert_eq!(conns.len(), CONNS);
        let total: usize = conns.iter().map(Vec::len).sum();
        assert!((36_000..44_000).contains(&total), "{total} requests in 1 s");
        for reqs in &conns {
            assert!(reqs.windows(2).all(|p| p[0].due_ns <= p[1].due_ns));
            assert!(reqs.iter().all(|r| (1..=512).contains(&r.length)));
        }
    }

    #[test]
    fn batched_frames_share_a_due_time_and_follow_the_mix() {
        let w = live("tenants_batched");
        let conns = build(&w, 3, 0, 0.5);
        let mut per_tenant = [0u64; 3];
        for reqs in &conns {
            assert_eq!(reqs.len() % 32, 0);
            for frame in reqs.chunks(32) {
                assert!(frame.iter().all(|r| r.due_ns == frame[0].due_ns));
            }
            for r in reqs {
                per_tenant[r.tenant as usize] += 1;
            }
        }
        let total: u64 = per_tenant.iter().sum();
        let share = |t: usize| per_tenant[t] as f64 / total as f64;
        assert!((share(0) - 0.6).abs() < 0.02, "tenant a share {}", share(0));
        assert!((share(1) - 0.3).abs() < 0.02, "tenant b share {}", share(1));
        assert!((share(2) - 0.1).abs() < 0.02, "tenant c share {}", share(2));
    }

    #[test]
    fn tenant_cycle_is_exact() {
        let counts = (0..100u64).fold([0u32; 3], |mut acc, i| {
            acc[tenant_of(i, &[6, 3, 1]) as usize] += 1;
            acc
        });
        assert_eq!(counts, [60, 30, 10]);
        assert_eq!(tenant_of(5, &[1]), 0);
    }
}
