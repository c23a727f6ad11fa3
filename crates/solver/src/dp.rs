//! Exact dynamic-programming solver for the allocation problem.
//!
//! The paper hands Eqs. 1–7 to GUROBI. The program is non-linear and
//! non-convex, but it has a *sequential* structure the generic solver never
//! exploits: the only coupling between runtimes is the demotion carry `R_i`
//! (Eq. 4), which flows strictly from smaller to larger runtimes. Processing
//! runtimes in ascending `max_length` order therefore admits an exact DP
//! whose state is `(GPUs used so far, carried demand R)`:
//!
//! * stage `i` chooses `N_i` within its Eq. 3 bound and the remaining budget
//!   (minus the lower bounds still owed to later runtimes);
//! * the stage cost `L_i(B_i)·C_i` depends only on the state and `N_i`;
//! * future cost is monotone non-decreasing in `R` (more demoted demand can
//!   never reduce downstream latency), so states dominated in both `R` and
//!   accumulated cost can be pruned — a Pareto frontier per `(stage, used)`.
//!
//! The frontier is capped (`max_frontier`); on realistic instances it never
//! fills (verified in tests against brute force), and when it does the
//! solver degrades gracefully to near-optimal by epsilon-thinning the
//! frontier rather than failing.

use crate::problem::{Allocation, AllocationProblem, SolveError};

/// Exact DP solver with Pareto-pruned carry states.
///
/// ```
/// use arlo_solver::prelude::*;
/// use arlo_runtime::prelude::*;
///
/// let profiles = profile_runtimes(
///     &RuntimeSet::natural(ModelSpec::bert_base()).compile(),
///     150.0,
///     256,
/// );
/// let demand: Vec<f64> = (0..8).map(|i| 60.0 / (1.0 + i as f64)).collect();
/// let problem = AllocationProblem::from_profiles(10, &profiles, &demand);
/// let (alloc, cost) = DpSolver::default().solve(&problem).unwrap();
/// assert_eq!(alloc.total(), 10);           // Eq. 2
/// assert!(*alloc.instances.last().unwrap() >= 1); // Eq. 7
/// assert!(cost > 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DpSolver {
    /// Maximum Pareto-frontier size per `(stage, gpus-used)` cell.
    pub max_frontier: usize,
}

impl Default for DpSolver {
    fn default() -> Self {
        DpSolver { max_frontier: 256 }
    }
}

#[derive(Debug, Clone, Copy)]
struct State {
    carry: f64,
    cost: f64,
    /// Back-pointer: (previous frontier slot, chosen N) — `used` of the
    /// predecessor is implied by `used - n`.
    prev_slot: u32,
    chosen_n: u32,
}

/// Problems with at least this many GPUs expand each stage across worker
/// threads: transitions grow as `G²/2` per stage, and below this a thread
/// spawn costs more than it saves.
const PARALLEL_MIN_GPUS: usize = 192;

impl DpSolver {
    /// Solve to optimality (given sufficient frontier room).
    ///
    /// Returns the optimal allocation and its objective value.
    pub fn solve(&self, problem: &AllocationProblem) -> Result<(Allocation, f64), SolveError> {
        problem.validate();
        if !problem.is_solvable() {
            return Err(SolveError::Infeasible);
        }
        let (alloc, objective) = self
            .forward(problem, false)
            .best(problem.gpus as usize)
            .ok_or(SolveError::Infeasible)?;
        debug_assert!(
            problem.is_feasible(&alloc),
            "DP produced infeasible allocation"
        );
        Ok((alloc, objective))
    }

    /// Solve at every budget `b ∈ 0..=G` from one forward pass: entry `b`
    /// is bit-identical to [`solve`](Self::solve) on the same problem with
    /// `gpus = b` (same allocation, same objective bits), and `None`
    /// exactly where that solve fails.
    ///
    /// One pass suffices because budgets differ only in their last stage.
    /// A frontier at `(stage i, used)` with `used ≤ b − reserve[i]` is built
    /// from the same predecessors, pushed in the same order, under budget
    /// `b` as under `G`; only Eq. 2's "the last runtime takes every
    /// remaining GPU" depends on `b`. So the last stage expands every `N`
    /// instead of only the remainder, and the terminal frontier at `used ==
    /// b` is the one `solve` would end on at budget `b`.
    ///
    /// ```
    /// use arlo_solver::prelude::*;
    /// use arlo_runtime::prelude::*;
    ///
    /// let profiles = profile_runtimes(
    ///     &RuntimeSet::natural(ModelSpec::bert_base()).compile(),
    ///     150.0,
    ///     256,
    /// );
    /// let demand: Vec<f64> = (0..8).map(|i| 60.0 / (1.0 + i as f64)).collect();
    /// let curve = DpSolver::default()
    ///     .solve_curve(&AllocationProblem::from_profiles(10, &profiles, &demand));
    /// let at_8 = DpSolver::default()
    ///     .solve(&AllocationProblem::from_profiles(8, &profiles, &demand))
    ///     .ok();
    /// assert_eq!(curve.len(), 11);
    /// assert_eq!(curve[8], at_8);
    /// assert_eq!(curve[0], None); // Eq. 7 needs at least one GPU
    /// ```
    pub fn solve_curve(&self, problem: &AllocationProblem) -> Vec<Option<(Allocation, f64)>> {
        problem.validate();
        let budgets = 0..=problem.gpus as usize;
        if !problem.is_solvable() {
            // Lower bounds do not depend on the budget: no smaller one
            // is solvable either.
            return budgets.map(|_| None).collect();
        }
        let pass = self.forward(problem, true);
        budgets.map(|budget| pass.best(budget)).collect()
    }

    /// The stage-by-stage forward pass shared by [`solve`](Self::solve)
    /// and [`solve_curve`](Self::solve_curve). With `every_budget` false
    /// the last runtime takes exactly the remaining GPUs (only the
    /// `used == G` terminal frontier fills); with it true the last stage
    /// expands like any other, filling the terminal frontier of every
    /// budget.
    fn forward(&self, problem: &AllocationProblem, every_budget: bool) -> Forward {
        let g = problem.gpus as usize;
        let stages = problem.len();
        let bounds = problem.lower_bounds();
        // reserve[i] = GPUs that must remain for stages i..end.
        let mut reserve = vec![0u32; stages + 1];
        for i in (0..stages).rev() {
            reserve[i] = reserve[i + 1] + bounds[i];
        }
        // Work estimate: frontiers are tiny in practice, so transitions
        // ≈ Σ_used (hi − lo) ≈ g²/2. Parallelize the expansion across
        // source `used` ranges once that's worth a thread spawn; the
        // host's parallelism is read once, and only then.
        let threads = if g >= PARALLEL_MIN_GPUS {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            1
        };

        // layers[stage][used] = Pareto frontier of states after `stage`
        // stages, having consumed `used` GPUs.
        let mut layers: Vec<Vec<Vec<State>>> = Vec::with_capacity(stages);
        let seed = State {
            carry: 0.0,
            cost: 0.0,
            prev_slot: 0,
            chosen_n: 0,
        };
        let mut current: Vec<Vec<State>> = vec![Vec::new(); g + 1];
        current[0].push(seed);

        let last = stages - 1;
        for (i, rt) in problem.runtimes.iter().enumerate() {
            let stage = StageCtx {
                rt,
                lo: bounds[i],
                cap: f64::from(rt.capacity),
                reserve: reserve[i],
                next_reserve: reserve[i + 1],
                is_last: i == last,
                fill: i == last && !every_budget,
                g,
            };
            let mut next = if threads > 1 {
                expand_parallel(&current, &stage, threads)
            } else {
                let mut next: Vec<Vec<State>> = vec![Vec::new(); g + 1];
                for (used, frontier) in current.iter().enumerate() {
                    expand(used, frontier, &stage, &mut next);
                }
                next
            };
            for frontier in &mut next {
                prune(frontier, self.max_frontier);
            }
            layers.push(current);
            current = next;
        }
        Forward {
            layers,
            terminal: current,
        }
    }
}

/// The frontiers one forward pass leaves behind.
struct Forward {
    /// `layers[i][used]`: the frontier before stage `i`.
    layers: Vec<Vec<Vec<State>>>,
    /// `terminal[used]`: the frontier after the last stage.
    terminal: Vec<Vec<State>>,
}

impl Forward {
    /// The cheapest terminal state at `budget` and the allocation its
    /// back-pointers spell; `None` when no state spends exactly `budget`.
    fn best(&self, budget: usize) -> Option<(Allocation, f64)> {
        let terminal = &self.terminal[budget];
        let best_slot = terminal
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.cost.partial_cmp(&b.1.cost).expect("NaN cost"))
            .map(|(slot, _)| slot)?;

        // Walk back-pointers to reconstruct N_i.
        let stages = self.layers.len();
        let mut instances = vec![0u32; stages];
        let mut used = budget;
        let objective = terminal[best_slot].cost;
        let mut cursor: &State = &terminal[best_slot];
        for i in (0..stages).rev() {
            instances[i] = cursor.chosen_n;
            used -= cursor.chosen_n as usize;
            if i > 0 {
                cursor = &self.layers[i][used][cursor.prev_slot as usize];
            }
        }
        Some((Allocation { instances }, objective))
    }
}

/// Per-stage constants shared by the serial and parallel expansion paths.
struct StageCtx<'a> {
    rt: &'a crate::problem::RuntimeInput,
    lo: u32,
    cap: f64,
    reserve: u32,
    next_reserve: u32,
    /// The last runtime: it keeps every request routed to it (no carry).
    is_last: bool,
    /// `N` must spend every remaining GPU (Eq. 2 at a single budget).
    fill: bool,
    g: usize,
}

/// Expand every source bucket across `threads` workers, each over a
/// contiguous `used` range into thread-local target maps; the maps merge
/// in fixed thread order, so the result is bit-identical to the serial
/// path (push order per target bucket is unchanged).
fn expand_parallel(
    current: &[Vec<State>],
    stage: &StageCtx<'_>,
    threads: usize,
) -> Vec<Vec<State>> {
    let g = stage.g;
    let chunk = (g + 1).div_ceil(threads);
    let partials: Vec<Vec<Vec<State>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut local: Vec<Vec<State>> = vec![Vec::new(); g + 1];
                    let from = t * chunk;
                    let to = ((t + 1) * chunk).min(g + 1);
                    for (used, frontier) in current.iter().enumerate().take(to).skip(from) {
                        expand(used, frontier, stage, &mut local);
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("dp worker"))
            .collect()
    });
    let mut next: Vec<Vec<State>> = vec![Vec::new(); g + 1];
    for part in partials {
        for (bucket, states) in part.into_iter().enumerate() {
            for st in states {
                push_state(&mut next[bucket], st);
            }
        }
    }
    next
}

/// Expand every state of one `used` bucket across its feasible `N` choices
/// into `out` (indexed by `used + N`).
fn expand(used: usize, frontier: &[State], stage: &StageCtx<'_>, out: &mut [Vec<State>]) {
    let remaining = (stage.g - used) as u32;
    if remaining < stage.reserve {
        return;
    }
    let hi = remaining - stage.next_reserve;
    let lo = if stage.fill { hi } else { stage.lo };
    for (slot, st) in frontier.iter().enumerate() {
        let inflow = st.carry + stage.rt.demand;
        for n in lo..=hi {
            let (cost_inc, carry) = stage_cost(inflow, n, stage.cap, stage.rt, stage.is_last);
            push_state(
                &mut out[used + n as usize],
                State {
                    carry,
                    cost: st.cost + cost_inc,
                    prev_slot: slot as u32,
                    chosen_n: n,
                },
            );
        }
    }
}

/// Stage cost `L_i(B_i)·C_i` and the outgoing carry `R_i`.
fn stage_cost(
    inflow: f64,
    n: u32,
    cap: f64,
    rt: &crate::problem::RuntimeInput,
    is_last: bool,
) -> (f64, f64) {
    let served_cap = f64::from(n) * cap;
    let (c, r) = if is_last {
        (inflow, 0.0)
    } else {
        (inflow.min(served_cap), (inflow - served_cap).max(0.0))
    };
    if c <= 0.0 {
        (0.0, r)
    } else {
        debug_assert!(n > 0, "flow assigned to an empty runtime");
        let b = c / f64::from(n);
        (rt.batch_latency.mean_latency_ms(b) * c, r)
    }
}

/// Insert while keeping only Pareto-minimal `(carry, cost)` states; thin to
/// `cap` entries if the frontier overflows.
fn push_state(frontier: &mut Vec<State>, st: State) {
    // Dominated by an existing state?
    if frontier
        .iter()
        .any(|f| f.carry <= st.carry && f.cost <= st.cost)
    {
        return;
    }
    // Remove states the newcomer dominates.
    frontier.retain(|f| !(st.carry <= f.carry && st.cost <= f.cost));
    frontier.push(st);
}

fn prune(frontier: &mut Vec<State>, cap: usize) {
    if frontier.len() <= cap {
        return;
    }
    // Epsilon-thinning: keep the endpoints of the carry range and an even
    // spread between them, favouring low cost inside each bucket. The
    // frontier is already carry-sorted by construction.
    let n = frontier.len();
    let mut kept: Vec<State> = Vec::with_capacity(cap);
    for k in 0..cap {
        let lo = k * n / cap;
        let hi = ((k + 1) * n / cap).max(lo + 1);
        let best = frontier[lo..hi]
            .iter()
            .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("NaN cost"))
            .copied()
            .expect("non-empty bucket");
        kept.push(best);
    }
    *frontier = kept;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForceSolver;
    use crate::problem::RuntimeInput;
    use arlo_runtime::profile::BatchLatencyMap;

    fn burst_map(exec_ms: f64, m: usize) -> BatchLatencyMap {
        BatchLatencyMap::from_measurements(
            (1..=m.max(1))
                .map(|b| exec_ms * (b as f64 + 1.0) / 2.0)
                .collect(),
        )
    }

    fn problem(gpus: u32, spec: &[(u32, u32, f64, f64)]) -> AllocationProblem {
        AllocationProblem {
            gpus,
            runtimes: spec
                .iter()
                .map(|&(len, cap, q, exec)| RuntimeInput {
                    max_length: len,
                    capacity: cap,
                    demand: q,
                    batch_latency: burst_map(exec, cap.max(1) as usize),
                })
                .collect(),
        }
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        let cases = [
            problem(4, &[(64, 10, 25.0, 1.0), (512, 5, 4.0, 2.0)]),
            problem(
                6,
                &[(64, 12, 30.0, 1.0), (256, 8, 10.0, 1.5), (512, 5, 5.0, 2.0)],
            ),
            problem(
                8,
                &[
                    (64, 20, 5.0, 0.5),
                    (128, 15, 40.0, 0.8),
                    (256, 10, 3.0, 1.2),
                    (512, 6, 8.0, 2.0),
                ],
            ),
            problem(3, &[(128, 7, 0.0, 1.0), (512, 4, 0.0, 2.0)]),
        ];
        for (k, p) in cases.iter().enumerate() {
            let (dp_alloc, dp_cost) = DpSolver::default().solve(p).expect("dp");
            let (bf_alloc, bf_cost) = BruteForceSolver.solve(p).expect("bf");
            assert!(
                (dp_cost - bf_cost).abs() < 1e-6,
                "case {k}: dp {dp_cost} (alloc {dp_alloc:?}) vs brute {bf_cost} ({bf_alloc:?})"
            );
        }
    }

    #[test]
    fn infeasible_when_lower_bounds_exceed_gpus() {
        let p = problem(2, &[(64, 10, 100.0, 1.0), (512, 5, 4.0, 2.0)]);
        assert_eq!(
            DpSolver::default().solve(&p).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn allocation_sums_to_g_and_respects_bounds() {
        let p = problem(
            12,
            &[
                (64, 20, 80.0, 0.5),
                (128, 15, 60.0, 0.8),
                (256, 10, 20.0, 1.2),
                (512, 6, 10.0, 2.0),
            ],
        );
        let (alloc, _) = DpSolver::default().solve(&p).expect("solve");
        assert_eq!(alloc.total(), 12);
        for (i, &n) in alloc.instances.iter().enumerate() {
            assert!(n >= p.lower_bound(i), "runtime {i}: {n}");
        }
    }

    #[test]
    fn heavy_short_demand_draws_gpus_to_small_runtimes() {
        // Nearly all demand is short: the optimizer should pile instances on
        // the small runtime rather than the expensive large one.
        let p = problem(10, &[(64, 100, 500.0, 1.0), (512, 20, 5.0, 5.0)]);
        let (alloc, _) = DpSolver::default().solve(&p).expect("solve");
        assert!(
            alloc.instances[0] >= 7,
            "small runtime got {:?}",
            alloc.instances
        );
        assert!(alloc.instances[1] >= 1);
    }

    #[test]
    fn heavy_long_demand_draws_gpus_to_large_runtimes() {
        let p = problem(10, &[(64, 100, 5.0, 1.0), (512, 20, 150.0, 5.0)]);
        let (alloc, _) = DpSolver::default().solve(&p).expect("solve");
        assert!(
            alloc.instances[1] >= 7,
            "large runtime got {:?}",
            alloc.instances
        );
    }

    #[test]
    fn scales_to_table2_sizes() {
        // Table 2's largest configuration: 1000 GPUs, 16 runtimes. This test
        // checks correctness properties and that the solve completes; the
        // timing itself is measured by the `ilp_solve` Criterion bench.
        let spec: Vec<(u32, u32, f64, f64)> = (1..=16)
            .map(|i| {
                let len = 32 * i;
                let exec = 0.5 + 0.3 * f64::from(i);
                let cap = (150.0 / exec) as u32;
                let q = 4000.0 / f64::from(i); // demand skewed short
                (len, cap, q, exec)
            })
            .collect();
        let p = problem(1000, &spec);
        let (alloc, cost) = DpSolver::default().solve(&p).expect("solve");
        assert_eq!(alloc.total(), 1000);
        assert!(cost.is_finite() && cost > 0.0);
    }

    #[test]
    fn parallel_expansion_is_deterministic_and_consistent() {
        // g ≥ 192 engages the threaded expansion path (on multicore hosts);
        // the thread-ordered merge must keep results bit-identical across
        // runs and consistent with independent objective evaluation.
        let spec: Vec<(u32, u32, f64, f64)> = (1..=12)
            .map(|i| {
                let exec = 0.5 + 0.25 * f64::from(i);
                ((48 * i), (150.0 / exec) as u32, 900.0 / f64::from(i), exec)
            })
            .collect();
        let p = problem(256, &spec);
        let (a1, c1) = DpSolver::default().solve(&p).expect("solve");
        let (a2, c2) = DpSolver::default().solve(&p).expect("solve");
        assert_eq!(a1, a2, "parallel merge must be deterministic");
        assert_eq!(c1, c2);
        let re = p.evaluate(&a1).expect("feasible");
        assert!((re - c1).abs() < 1e-6, "reported {c1} vs evaluated {re}");
        assert_eq!(a1.total(), 256);
    }

    /// Check `solve_curve` at `problem.gpus` against `solve` at each of
    /// `budgets`, bit for bit; returns how many budgets were solvable.
    fn check_curve(
        solver: DpSolver,
        problem: &AllocationProblem,
        budgets: impl IntoIterator<Item = u32>,
    ) -> Result<usize, String> {
        let curve = solver.solve_curve(problem);
        if curve.len() != problem.gpus as usize + 1 {
            return Err(format!("curve has {} entries", curve.len()));
        }
        let mut solved = 0;
        for b in budgets {
            let at_b = AllocationProblem {
                gpus: b,
                ..problem.clone()
            };
            match (solver.solve(&at_b), &curve[b as usize]) {
                (Ok((alloc, cost)), Some((c_alloc, c_cost)))
                    if alloc == *c_alloc && cost.to_bits() == c_cost.to_bits() =>
                {
                    solved += 1;
                }
                (Err(SolveError::Infeasible), None) => {}
                (direct, curved) => {
                    return Err(format!(
                        "budget {b} of {}: solve {direct:?} vs curve {curved:?}",
                        problem.gpus
                    ))
                }
            }
        }
        Ok(solved)
    }

    #[test]
    fn curve_matches_per_budget_solves_bit_for_bit() {
        use proptest::prelude::*;
        // (capacity, demand, exec) per runtime; capacity 0 forwards all
        // demand, and demand up to 30 per bin pushes the summed lower
        // bounds above many budgets.
        let (mut solvable, mut unsolvable, mut thinned, mut single) = (0, 0, 0, 0);
        proptest!(ProptestConfig::with_cases(160), |(
            family in proptest::collection::vec((0u32..=10, 0.0f64..30.0, 0.3f64..3.0), 1..=5),
            gpus in 0u32..=24,
            frontier in 0usize..4,
        )| {
            let last = family.len() - 1;
            let spec: Vec<(u32, u32, f64, f64)> = family
                .iter()
                .enumerate()
                .map(|(i, &(cap, q, exec))| {
                    let cap = if i == last { cap.max(1) } else { cap };
                    (64 * (i as u32 + 1), cap, q, exec)
                })
                .collect();
            let p = problem(gpus, &spec);
            let solver = DpSolver { max_frontier: [1, 2, 4, 256][frontier] };
            let solved = check_curve(solver, &p, 0..=gpus).map_err(TestCaseError)?;
            solvable += solved;
            unsolvable += gpus as usize + 1 - solved;
            thinned += usize::from(solved > 0 && solver.max_frontier <= 2);
            single += usize::from(solved > 0 && spec.len() == 1);
        });
        assert!(
            solvable > 200 && unsolvable > 200,
            "{solvable} / {unsolvable}"
        );
        assert!(
            thinned > 10 && single > 10,
            "{thinned} thinned, {single} single"
        );
    }

    #[test]
    fn curve_matches_solves_on_the_parallel_path() {
        // G ≥ 192 expands across threads (on multicore hosts); budgets
        // below 192 solve serially, so these also pin the parallel merge
        // to the serial push order.
        let spec: Vec<(u32, u32, f64, f64)> = (1..=12)
            .map(|i| {
                let exec = 0.5 + 0.25 * f64::from(i);
                ((48 * i), (150.0 / exec) as u32, 900.0 / f64::from(i), exec)
            })
            .collect();
        let p = problem(256, &spec);
        let budgets = [0, 20, 21, 120, 191, 192, 230, 256];
        let solved = check_curve(DpSolver::default(), &p, budgets).expect("curve");
        assert_eq!(solved, budgets.len() - 2, "the lower bounds sum to 21");
    }

    #[test]
    fn zero_demand_gives_minimal_cost_zero() {
        let p = problem(5, &[(64, 10, 0.0, 1.0), (512, 5, 0.0, 2.0)]);
        let (alloc, cost) = DpSolver::default().solve(&p).expect("solve");
        assert_eq!(cost, 0.0);
        assert_eq!(alloc.total(), 5);
    }

    #[test]
    fn tiny_frontier_still_feasible() {
        // With a pathologically small frontier the solver must still return
        // a feasible (if not optimal) allocation.
        let p = problem(
            8,
            &[
                (64, 20, 55.0, 0.5),
                (128, 15, 33.0, 0.8),
                (256, 10, 21.0, 1.2),
                (512, 6, 8.0, 2.0),
            ],
        );
        let solver = DpSolver { max_frontier: 2 };
        let (alloc, cost) = solver.solve(&p).expect("solve");
        assert!(p.is_feasible(&alloc));
        let exact = DpSolver::default().solve(&p).expect("solve").1;
        assert!(
            cost >= exact - 1e-9,
            "thinned frontier cannot beat the optimum"
        );
    }
}
