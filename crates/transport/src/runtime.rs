//! The transport runtime: a sequencer driving shard actors through one
//! plan/commit cycle protocol, byte-identical to [`Simulator`] under the
//! canonical [`DeliverySchedule`].
//!
//! # Why this is byte-identical to the simulator
//!
//! The engine's cycle is already a message-shaped computation: planning is a
//! pure function of the cycle-start snapshot, commits touch only their own
//! conflict-free pair, and everything that crosses a pair boundary travels
//! as data (bandwidth [`Charge`]s, routed effects). The runtime replays the
//! exact same phases over mailboxes, preserving every ordering the engine
//! fixes:
//!
//! * **RNG streams** — the sequencer owns a clone of the simulator's master
//!   RNG and draws one cycle seed per cycle, exactly like the engine; all
//!   per-node plan RNGs and per-plan commit RNGs derive from that seed by
//!   *index*, so where a computation runs (which actor, which thread) can
//!   never touch a stream.
//! * **Plan order** — shards own contiguous node ranges and plan their
//!   alive locals in ascending order, so gathering announcements in
//!   ascending shard order (the canonical schedule) concatenates into the
//!   engine's ascending global plan list. The fault filter, the greedy
//!   conflict-free batching and the per-plan commit RNGs all key off that
//!   list, so they decide identically.
//! * **Commit isolation** — within a batch no node appears twice, so a
//!   commit's `&mut` pair is disjoint from every other commit's. A
//!   cross-shard destination *moves* to the committing shard as a guest:
//!   each owning shard gets one `Lend` per batch listing all of its lent
//!   nodes and answers with one `Guests` reply in request order; the slot
//!   it leaves stays empty, and unread, until the guest comes home.
//! * **Apply order** — each shard gets one `Apply` per batch that restores
//!   all of its lent guests first and then runs its effects in plan order,
//!   mirroring "all commits finish, then outcomes apply in plan order"
//!   (effects on different shards touch different nodes, so only the
//!   per-shard order matters). Restore-before-effect holds inside that one
//!   message; per-shard FIFO with the sequencer as single sender makes the
//!   Apply land before the next batch's Lend or Commit. Each effect runs in
//!   a one-node window at its [`GossipProtocol::effect_target`], so an
//!   effect that touches any other node panics instead of mutating a
//!   neighbour.
//! * **Bandwidth** — commit charges land in the sequencer's master
//!   recorder at the committing cycle; effect-recorded bandwidth lands in
//!   shard-local recorders merged in at the end. Recorder merge is
//!   commutative addition over the same `(node, cycle, category, bytes)`
//!   records the engine makes, so every aggregate matches.
//!
//! A seeded schedule replays a *different* (but fixed) arrival permutation
//! per cycle: runs remain fully deterministic in `(seed, schedule)`, and
//! only the canonical schedule additionally equals the simulator.

use std::sync::Arc;
use std::thread;

use rand::rngs::StdRng;
use rand::Rng;

use p3q_sim::{
    conflict_free_batches, BandwidthRecorder, Charge, CycleReport, EventQueue, ExchangePlan,
    GossipProtocol, Membership, RunOptions, RunParts, RunReport, Simulator,
};

use crate::actor::{run_actor, CommitJob, FromShard, JobOutcome, ToShard};
use crate::mailbox::{InProcess, MailboxReceiver, MailboxSender, Transport};
use crate::schedule::DeliverySchedule;

/// Sequencer-side panic message when a shard actor's mailbox hangs up.
const ACTOR_GONE: &str = "shard actor hung up (it panicked or was stopped)";

/// One live shard actor, sequencer side: its command mailbox, its reply
/// mailbox and the handle that returns its state on shutdown.
struct ActorHandle<'scope, N, Pl, E, T>
where
    N: Send + Sync,
    Pl: Send + Sync,
    E: Send,
    T: Transport,
{
    tx: T::Sender<ToShard<N, Pl, E>>,
    reply: T::Receiver<FromShard<N, Pl, E>>,
    join: thread::ScopedJoinHandle<'scope, (Vec<N>, BandwidthRecorder)>,
}

/// Spawns one shard actor thread owning `nodes` (global indices starting at
/// `base`), wired to the sequencer through two fresh mailboxes.
fn spawn_actor<'scope, P, T>(
    scope: &'scope thread::Scope<'scope, '_>,
    proto: &'scope P,
    transport: &mut T,
    base: usize,
    nodes: Vec<P::Node>,
) -> ActorHandle<'scope, P::Node, P::Payload, P::Effect, T>
where
    P: GossipProtocol,
    P::Node: Clone + 'static,
    P::Payload: 'static,
    P::Effect: 'static,
    T: Transport,
    T::Sender<FromShard<P::Node, P::Payload, P::Effect>>: 'static,
    T::Receiver<ToShard<P::Node, P::Payload, P::Effect>>: 'static,
{
    let (tx, cmd_rx) = transport.mailbox::<ToShard<P::Node, P::Payload, P::Effect>>();
    let (reply_tx, reply) = transport.mailbox::<FromShard<P::Node, P::Payload, P::Effect>>();
    let join = scope.spawn(move || run_actor::<P, _, _>(proto, base, nodes, cmd_rx, reply_tx));
    ActorHandle { tx, reply, join }
}

/// A message-passing runtime executing [`GossipProtocol`]s over shard
/// actors, oracle-equal to [`Simulator`] (see the module docs).
///
/// Constructed from a simulator snapshot ([`from_simulator`]
/// (Self::from_simulator)); between [`drive`](Self::drive) calls the
/// runtime owns the node states, membership, RNG position and bandwidth
/// totals, so state can be inspected (or churned) exactly where a
/// simulator's could. During a drive the states live inside the actors —
/// which is why, unlike `Simulator::drive`, the transport drive takes no
/// observer closure: observe between drives instead.
#[derive(Debug)]
pub struct TransportRuntime<N, T: Transport = InProcess> {
    /// Contiguous node shards; `shards[s][0]` has global index `bases[s]`.
    shards: Vec<Vec<N>>,
    bases: Vec<usize>,
    shard_size: usize,
    num_nodes: usize,
    membership: Membership,
    cycle: u64,
    rng: StdRng,
    schedule: DeliverySchedule,
    /// Scheduled infrastructure faults: actor ids to stop-and-respawn at
    /// the start of the given cycle.
    restarts: EventQueue<usize>,
    transport: T,
    /// Bandwidth and message accounting for the whole run.
    pub bandwidth: BandwidthRecorder,
}

impl<N: Send + Sync> TransportRuntime<N, InProcess> {
    /// Snapshots a simulator into a runtime over `num_actors` in-process
    /// shard actors (clamped to `1..=num_nodes`; the contiguous equal-size
    /// partition may round the actual actor count down — see
    /// [`num_actors`](Self::num_actors)).
    ///
    /// Takes `&mut` only to clone the simulator's RNG position; the
    /// simulator is otherwise untouched and can keep running as the
    /// reference for oracle-equality checks.
    pub fn from_simulator(
        sim: &mut Simulator<N>,
        num_actors: usize,
        schedule: DeliverySchedule,
    ) -> Self
    where
        N: Clone,
    {
        Self::with_transport(sim, num_actors, schedule, InProcess)
    }
}

impl<N: Send + Sync, T: Transport> TransportRuntime<N, T> {
    /// [`from_simulator`](TransportRuntime::from_simulator) over an explicit
    /// transport backend.
    pub fn with_transport(
        sim: &mut Simulator<N>,
        num_actors: usize,
        schedule: DeliverySchedule,
        transport: T,
    ) -> Self
    where
        N: Clone,
    {
        let n = sim.num_nodes();
        let actors = num_actors.clamp(1, n.max(1));
        let shard_size = n.div_ceil(actors).max(1);
        let mut shards: Vec<Vec<N>> = sim.nodes().chunks(shard_size).map(<[N]>::to_vec).collect();
        if shards.is_empty() {
            shards.push(Vec::new());
        }
        let bases: Vec<usize> = shards
            .iter()
            .scan(0usize, |next, shard| {
                let base = *next;
                *next += shard.len();
                Some(base)
            })
            .collect();
        Self {
            shards,
            bases,
            shard_size,
            num_nodes: n,
            membership: sim.membership().clone(),
            cycle: sim.cycle(),
            rng: sim.rng().clone(),
            schedule,
            restarts: EventQueue::new(),
            transport,
            bandwidth: sim.bandwidth.clone(),
        }
    }

    /// Number of nodes (alive or departed).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of shard actors the population is partitioned over.
    pub fn num_actors(&self) -> usize {
        self.shards.len()
    }

    /// Current cycle (number of completed cycles driven so far).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The delivery schedule this runtime replays.
    pub fn schedule(&self) -> DeliverySchedule {
        self.schedule
    }

    /// The membership (who is alive).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Mutable membership, e.g. to inject churn **between** drives.
    pub fn membership_mut(&mut self) -> &mut Membership {
        &mut self.membership
    }

    /// One node's state, by global index (between drives).
    pub fn node(&self, idx: usize) -> &N {
        &self.shards[idx / self.shard_size][idx % self.shard_size]
    }

    /// All node states in ascending global order (between drives).
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.shards.iter().flatten()
    }

    /// Schedules an *infrastructure* fault: at the start of `at_cycle` the
    /// given actor is stopped, joined and respawned on its recovered shard
    /// state. Protocol output is unaffected by construction (the shard's
    /// nodes and accounting survive the hop) — which is exactly the
    /// property the crash/restart suites pin. Restarts falling beyond a
    /// drive stay queued for the next one.
    ///
    /// # Panics
    /// Panics if `actor >= self.num_actors()`.
    pub fn schedule_actor_restart(&mut self, at_cycle: u64, actor: usize) {
        assert!(actor < self.shards.len(), "actor index out of range");
        self.restarts.schedule(at_cycle, actor);
    }

    /// The one run-loop entry: executes cycles of `proto` under the given
    /// [`RunOptions`] — the same options shape `Simulator::drive` takes.
    ///
    /// Three option axes don't exist on a transport runtime and panic if
    /// requested: an event queue ([`RunOptions::events`]; inspect and
    /// mutate state between drives instead), oracle mode
    /// ([`RunOptions::oracle`]; the transport's oracle *is* the simulator),
    /// and a thread override ([`RunOptions::threads`]; parallelism is the
    /// actor count, fixed at construction). Fault schedules and both loop
    /// shapes (fixed cycles, until-idle) behave exactly as on the
    /// simulator.
    ///
    /// # Panics
    /// Panics on the options above, if a shard actor dies mid-run, or if
    /// the protocol emits an effect whose
    /// [`effect_target`](GossipProtocol::effect_target) is `None` — a
    /// sharded runtime cannot route an unconstrained effect.
    pub fn drive<P>(&mut self, proto: &P, opts: RunOptions<'_, P::Payload>) -> RunReport
    where
        P: GossipProtocol<Node = N>,
        P::Payload: Clone + 'static,
        P::Effect: 'static,
        N: Clone + 'static,
        T::Sender<FromShard<N, P::Payload, P::Effect>>: 'static,
        T::Receiver<ToShard<N, P::Payload, P::Effect>>: 'static,
    {
        let RunParts {
            threads,
            oracle,
            mut faults,
            events,
            cycles,
            until_idle,
        } = opts.into_parts();
        assert!(
            threads.is_none(),
            "a transport runtime's parallelism is its actor count, fixed at construction"
        );
        assert!(
            !oracle,
            "a transport runtime has no oracle mode — the oracle is the simulator itself"
        );
        assert!(
            events.is_none(),
            "transport runs have no scheduled-event axis — act between drives instead"
        );
        proto.begin_run(until_idle);

        let Self {
            shards,
            bases,
            shard_size,
            num_nodes,
            membership,
            cycle,
            rng,
            schedule,
            restarts,
            transport,
            bandwidth,
        } = self;
        let shard_size = *shard_size;
        let num_nodes = *num_nodes;
        let num_shards = shards.len();
        let shard_of = move |idx: usize| idx / shard_size;

        let mut total = CycleReport::default();
        let mut cycles_run = 0u64;

        thread::scope(|scope| {
            let mut actors: Vec<ActorHandle<'_, N, P::Payload, P::Effect, T>> = shards
                .iter_mut()
                .enumerate()
                .map(|(s, shard)| {
                    spawn_actor::<P, T>(scope, proto, transport, bases[s], std::mem::take(shard))
                })
                .collect();

            for _ in 0..cycles {
                // Infrastructure faults first: stop, join and respawn due
                // actors on their recovered state. The dead actor's local
                // bandwidth merges into the master immediately so nothing
                // is lost across the hop.
                for s in restarts.pop_due(*cycle) {
                    let old = actors.remove(s);
                    old.tx.send(ToShard::Stop).expect(ACTOR_GONE);
                    let (nodes, recorder) = old.join.join().expect("shard actor panicked");
                    bandwidth.merge(&recorder);
                    actors.insert(
                        s,
                        spawn_actor::<P, T>(scope, proto, transport, bases[s], nodes),
                    );
                }

                let this_cycle = *cycle;
                // Engine order: the cycle seed is drawn before anything
                // else consumes randomness.
                let cycle_seed: u64 = rng.gen();

                // Fault transitions, grouped by owning shard; hooks run
                // in-shard, restarts before crashes (engine order).
                if let Some(f) = faults.as_deref_mut() {
                    let transitions = f.begin_cycle(this_cycle, membership);
                    let mut restarted_by: Vec<Vec<usize>> = vec![Vec::new(); num_shards];
                    let mut crashed_by: Vec<Vec<usize>> = vec![Vec::new(); num_shards];
                    for &idx in &transitions.restarted {
                        restarted_by[shard_of(idx)].push(idx);
                    }
                    for &idx in &transitions.crashed {
                        crashed_by[shard_of(idx)].push(idx);
                    }
                    for s in 0..num_shards {
                        if restarted_by[s].is_empty() && crashed_by[s].is_empty() {
                            continue;
                        }
                        actors[s]
                            .tx
                            .send(ToShard::Transitions {
                                cycle: this_cycle,
                                restarted: std::mem::take(&mut restarted_by[s]),
                                crashed: std::mem::take(&mut crashed_by[s]),
                            })
                            .expect(ACTOR_GONE);
                    }
                }

                // The cycle's membership view, frozen post-transitions.
                let alive = Arc::new(membership.clone());

                // Prepare, then assemble the post-prepare world snapshot
                // from the shard replies (ascending shard order = global
                // node order). Lazy planners read *remote* state from this
                // snapshot (probe/re-bootstrap inspect other nodes), which
                // is why the full world broadcasts every cycle.
                for a in &actors {
                    a.tx.send(ToShard::Prepare {
                        cycle: this_cycle,
                        membership: alive.clone(),
                    })
                    .expect(ACTOR_GONE);
                }
                let mut world: Vec<N> = Vec::with_capacity(num_nodes);
                for a in &actors {
                    let FromShard::Snapshot(snapshot) = a.reply.recv().expect(ACTOR_GONE) else {
                        panic!("protocol violation: expected a prepare snapshot");
                    };
                    world.extend(snapshot);
                }
                let world = Arc::new(world);

                // Plan everywhere; gather announcements in the delivery
                // schedule's order. Canonical = ascending shards = the
                // engine's global plan list.
                for a in &actors {
                    a.tx.send(ToShard::Plan {
                        cycle: this_cycle,
                        cycle_seed,
                        world: world.clone(),
                        membership: alive.clone(),
                    })
                    .expect(ACTOR_GONE);
                }
                let mut plans: Vec<ExchangePlan<P::Payload>> = Vec::new();
                for s in schedule.gather_order(num_shards, this_cycle) {
                    let FromShard::Plans(announced) = actors[s].reply.recv().expect(ACTOR_GONE)
                    else {
                        panic!("protocol violation: expected a plan announcement");
                    };
                    plans.extend(announced);
                }

                // Delivery faults interpose between plan and commit, on the
                // gathered (totally ordered) plan list — reinterpreted here
                // as transport faults: a dropped plan is a lost message, a
                // delayed one re-arrives in a later cycle's list.
                let plans = match faults.as_deref_mut() {
                    Some(f) => f.filter_plans(this_cycle, plans, membership),
                    None => plans,
                };

                let batches = conflict_free_batches(&plans, num_nodes);
                let pair_exchanges = plans.iter().filter(|p| p.destination.is_some()).count();
                let report = CycleReport {
                    plans: plans.len(),
                    pair_exchanges,
                    solo_steps: plans.len() - pair_exchanges,
                    batches: batches.len(),
                };

                // Batches consume the plan list: each plan moves into
                // exactly one job.
                let mut plans: Vec<Option<ExchangePlan<P::Payload>>> =
                    plans.into_iter().map(Some).collect();
                for batch in &batches {
                    // Group the batch's jobs by the initiator's shard in
                    // ascending plan order, and its cross-shard destinations
                    // by their owner. Lending is safe: within a
                    // conflict-free batch the destination appears in no
                    // other plan, and per-shard FIFO ordering guarantees the
                    // previous batch's Apply already landed.
                    let mut jobs_by: Vec<Vec<CommitJob<N, P::Payload>>> =
                        (0..num_shards).map(|_| Vec::new()).collect();
                    let mut lends_by: Vec<Vec<usize>> = vec![Vec::new(); num_shards];
                    // Per owner, the (home shard, job position) each lent
                    // node goes to, in request order.
                    let mut borrowers_by: Vec<Vec<(usize, usize)>> = vec![Vec::new(); num_shards];
                    for &plan_idx in batch {
                        let plan = plans[plan_idx]
                            .take()
                            .expect("conflict-free batches name each plan once");
                        let home = shard_of(plan.initiator);
                        if let Some(dest) = plan.destination.filter(|&d| shard_of(d) != home) {
                            lends_by[shard_of(dest)].push(dest);
                            borrowers_by[shard_of(dest)].push((home, jobs_by[home].len()));
                        }
                        jobs_by[home].push(CommitJob {
                            plan,
                            plan_idx,
                            guest: None,
                        });
                    }

                    // One Lend per owning shard, all sent before any reply
                    // is awaited; each Guests reply follows request order.
                    let lending: Vec<usize> = (0..num_shards)
                        .filter(|&s| !lends_by[s].is_empty())
                        .collect();
                    for &s in &lending {
                        actors[s]
                            .tx
                            .send(ToShard::Lend {
                                nodes: std::mem::take(&mut lends_by[s]),
                            })
                            .expect(ACTOR_GONE);
                    }
                    for &s in &lending {
                        let FromShard::Guests(guests) = actors[s].reply.recv().expect(ACTOR_GONE)
                        else {
                            panic!("protocol violation: expected lent guests");
                        };
                        assert_eq!(
                            guests.len(),
                            borrowers_by[s].len(),
                            "protocol violation: one guest per lend request"
                        );
                        for (guest, &(home, pos)) in guests.into_iter().zip(&borrowers_by[s]) {
                            jobs_by[home][pos].guest = Some(guest);
                        }
                    }

                    // Fan the batch out to every shard with jobs, then
                    // gather; commits run concurrently across shards. The
                    // sort restores global plan order (commit RNGs never
                    // depended on it — they key off plan_idx).
                    let committing: Vec<usize> = (0..num_shards)
                        .filter(|&s| !jobs_by[s].is_empty())
                        .collect();
                    for &s in &committing {
                        actors[s]
                            .tx
                            .send(ToShard::Commit {
                                cycle: this_cycle,
                                cycle_seed,
                                jobs: std::mem::take(&mut jobs_by[s]),
                            })
                            .expect(ACTOR_GONE);
                    }
                    let mut outcomes: Vec<JobOutcome<N, P::Effect>> = Vec::new();
                    for &s in &committing {
                        let FromShard::Outcomes(done) = actors[s].reply.recv().expect(ACTOR_GONE)
                        else {
                            panic!("protocol violation: expected commit outcomes");
                        };
                        outcomes.extend(done);
                    }
                    outcomes.sort_by_key(|o| o.plan_idx);

                    // Charges land in the master recorder in plan order;
                    // guests and effects go into one Apply per shard, which
                    // restores every guest before any effect runs — the
                    // engine applies outcomes only after the whole batch
                    // committed, so an early plan's effect must observe a
                    // later plan's post-commit destination. Effects keep
                    // plan order within each shard and route to the shard
                    // owning their declared target.
                    let mut restores_by: Vec<Vec<(usize, N)>> =
                        (0..num_shards).map(|_| Vec::new()).collect();
                    let mut effects_by: Vec<Vec<(usize, P::Effect)>> =
                        (0..num_shards).map(|_| Vec::new()).collect();
                    for outcome in outcomes {
                        if let Some((idx, state)) = outcome.guest {
                            restores_by[shard_of(idx)].push((idx, state));
                        }
                        for Charge {
                            node,
                            category,
                            bytes,
                        } in outcome.outcome.charges
                        {
                            bandwidth.record(node, this_cycle, category, bytes);
                        }
                        for effect in outcome.outcome.effects {
                            let target = proto.effect_target(&effect).expect(
                                "a sharded transport needs GossipProtocol::effect_target \
                                 to route effects",
                            );
                            effects_by[shard_of(target)].push((target, effect));
                        }
                    }
                    for (s, (restores, effects)) in
                        restores_by.into_iter().zip(effects_by).enumerate()
                    {
                        if restores.is_empty() && effects.is_empty() {
                            continue;
                        }
                        actors[s]
                            .tx
                            .send(ToShard::Apply {
                                cycle: this_cycle,
                                restores,
                                effects,
                            })
                            .expect(ACTOR_GONE);
                    }
                }

                *cycle += 1;
                let completed = *cycle;
                // End-of-cycle bookkeeping over every node, plus the
                // until-idle re-ignition probe, one round-trip per shard.
                for a in &actors {
                    a.tx.send(ToShard::FinishCycle {
                        cycle: completed,
                        membership: alive.clone(),
                    })
                    .expect(ACTOR_GONE);
                }
                let mut wants_more = false;
                for a in &actors {
                    let FromShard::WantsMore(wants) = a.reply.recv().expect(ACTOR_GONE) else {
                        panic!("protocol violation: expected a wants-more probe");
                    };
                    wants_more |= wants;
                }

                total.absorb(report);
                cycles_run += 1;

                if until_idle && report.pair_exchanges == 0 {
                    let idle = match faults.as_deref() {
                        None => true,
                        Some(f) => {
                            f.pending_delayed() == 0 && f.pending_restarts() == 0 && !wants_more
                        }
                    };
                    if idle {
                        break;
                    }
                }
            }

            // Stop every actor and reassemble: node states return to their
            // slots, shard-local (effect-recorded) bandwidth merges into
            // the master in ascending shard order.
            for (s, handle) in actors.into_iter().enumerate() {
                handle.tx.send(ToShard::Stop).expect(ACTOR_GONE);
                let (nodes, recorder) = handle.join.join().expect("shard actor panicked");
                bandwidth.merge(&recorder);
                shards[s] = nodes;
            }
        });

        RunReport {
            cycles_run,
            report: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3q_sim::{CommitOutcome, CycleContext, EffectContext, FaultConfig, FaultPlan, RunOptions};

    /// The engine's toy ring protocol, with a routable effect: every alive
    /// node gossips with the next alive node (cyclically), both sides count
    /// the exchange, a charge is recorded and an effect increments a
    /// counter on node 0.
    struct RingProtocol;

    #[derive(Debug, Default, Clone, PartialEq, Eq)]
    struct Counter {
        initiated: u64,
        received: u64,
        effects: u64,
        prepared: u64,
        finished: u64,
        crashes: u64,
        restarts: u64,
    }

    impl GossipProtocol for RingProtocol {
        type Node = Counter;
        type Payload = ();
        type Effect = usize;
        type Scratch = ();

        fn scratch(&self) {}

        fn prepare(&self, node: &mut Counter, _cycle: u64) {
            node.prepared += 1;
        }

        fn plan(
            &self,
            world: &CycleContext<'_, Counter>,
            idx: usize,
            _rng: &mut rand::rngs::StdRng,
            out: &mut Vec<ExchangePlan<()>>,
        ) {
            let n = world.num_nodes();
            let partner = (1..n).map(|d| (idx + d) % n).find(|&p| world.is_alive(p));
            if let Some(partner) = partner {
                out.push(ExchangePlan {
                    initiator: idx,
                    destination: Some(partner),
                    payload: (),
                });
            }
        }

        fn commit(
            &self,
            _cycle: u64,
            plan: &ExchangePlan<()>,
            initiator: &mut Counter,
            destination: Option<&mut Counter>,
            _rng: &mut rand::rngs::StdRng,
            _scratch: &mut (),
        ) -> CommitOutcome<usize> {
            initiator.initiated += 1;
            destination.expect("ring plans are pairwise").received += 1;
            let mut outcome = CommitOutcome::empty();
            outcome.charge(plan.initiator, "ring", 10);
            outcome.effect(0);
            outcome
        }

        fn apply_effect(&self, world: &mut EffectContext<'_, Counter>, target: usize) {
            world.node_mut(target).effects += 1;
            world.record_bandwidth(target, "ring-effect", 1);
        }

        fn effect_target(&self, effect: &usize) -> Option<usize> {
            Some(*effect)
        }

        fn finish_cycle(&self, node: &mut Counter, _cycle: u64) {
            node.finished += 1;
        }

        fn on_crash(&self, node: &mut Counter, _cycle: u64) {
            node.initiated = 0;
            node.received = 0;
            node.crashes += 1;
        }

        fn on_restart(&self, node: &mut Counter, _cycle: u64) {
            node.restarts += 1;
        }
    }

    fn counters(n: usize, seed: u64) -> Simulator<Counter> {
        Simulator::new(vec![Counter::default(); n], seed)
    }

    fn assert_matches_simulator(
        sim: &Simulator<Counter>,
        transport: &TransportRuntime<Counter>,
        label: &str,
    ) {
        let sim_nodes: Vec<&Counter> = sim.nodes().iter().collect();
        let rt_nodes: Vec<&Counter> = transport.nodes().collect();
        assert_eq!(sim_nodes, rt_nodes, "{label}: node states diverged");
        assert_eq!(
            sim.bandwidth.totals(),
            transport.bandwidth.totals(),
            "{label}: bandwidth diverged"
        );
        assert_eq!(sim.cycle(), transport.cycle(), "{label}: cycle diverged");
    }

    #[test]
    fn canonical_schedule_matches_the_simulator_for_every_actor_count() {
        for num_actors in [1, 2, 3, 8, 23] {
            let mut sim = counters(23, 7);
            let mut reference = counters(23, 7);
            let mut transport = TransportRuntime::from_simulator(
                &mut sim,
                num_actors,
                DeliverySchedule::canonical(),
            );
            for _ in 0..3 {
                reference.drive(&RingProtocol, RunOptions::cycles(1), |_, _| {});
                transport.drive(&RingProtocol, RunOptions::cycles(1));
            }
            assert_matches_simulator(&reference, &transport, &format!("actors = {num_actors}"));
        }
    }

    #[test]
    fn faulted_runs_match_the_simulator() {
        let cfg = FaultConfig {
            drop_rate: 0.2,
            delay_rate: 0.2,
            duplicate_rate: 0.1,
            max_delay_cycles: 2,
            crash_rate: 0.05,
            downtime_cycles: 1,
            fault_seed: 99,
        };
        for num_actors in [1, 3, 8] {
            let mut seeded = counters(23, 7);
            let mut reference = counters(23, 7);
            let mut ref_faults: FaultPlan<()> = FaultPlan::new(cfg);
            let mut rt_faults: FaultPlan<()> = FaultPlan::new(cfg);
            let mut transport = TransportRuntime::from_simulator(
                &mut seeded,
                num_actors,
                DeliverySchedule::canonical(),
            );
            for _ in 0..8 {
                reference.drive(
                    &RingProtocol,
                    RunOptions::cycles(1).faulted(&mut ref_faults),
                    |_, _| {},
                );
                transport.drive(&RingProtocol, RunOptions::cycles(1).faulted(&mut rt_faults));
            }
            assert_matches_simulator(&reference, &transport, &format!("actors = {num_actors}"));
            assert_eq!(ref_faults.fingerprint(), rt_faults.fingerprint());
            assert_eq!(ref_faults.stats(), rt_faults.stats());
        }
    }

    /// Every node gossips with the node half the population away, so for
    /// 2, 3 and 8 actors over 24 nodes every pair crosses shards and one
    /// owner lends several guests per batch. Commits and effects fold node
    /// ids and current state into order-sensitive logs, so a guest handed
    /// to the wrong job, restored to the wrong slot, or an effect applied
    /// before its batch's restores shows up as a diverged log.
    struct MirrorProtocol;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Ledger {
        id: usize,
        log: u64,
    }

    fn fold(log: u64, value: u64) -> u64 {
        (log ^ value).wrapping_mul(0x100_0000_01b3)
    }

    impl GossipProtocol for MirrorProtocol {
        type Node = Ledger;
        type Payload = ();
        type Effect = (usize, usize);
        type Scratch = ();

        fn scratch(&self) {}

        fn plan(
            &self,
            world: &CycleContext<'_, Ledger>,
            idx: usize,
            _rng: &mut rand::rngs::StdRng,
            out: &mut Vec<ExchangePlan<()>>,
        ) {
            let n = world.num_nodes();
            let partner = (idx + n / 2) % n;
            if world.is_alive(partner) {
                out.push(ExchangePlan {
                    initiator: idx,
                    destination: Some(partner),
                    payload: (),
                });
            }
        }

        fn commit(
            &self,
            _cycle: u64,
            plan: &ExchangePlan<()>,
            initiator: &mut Ledger,
            destination: Option<&mut Ledger>,
            _rng: &mut rand::rngs::StdRng,
            _scratch: &mut (),
        ) -> CommitOutcome<(usize, usize)> {
            let dest = destination.expect("mirror plans are pairwise");
            initiator.log = fold(fold(initiator.log, dest.id as u64), dest.log);
            dest.log = fold(dest.log, initiator.id as u64);
            let target = plan.destination.expect("mirror plans are pairwise");
            let mut outcome = CommitOutcome::empty();
            outcome.charge(plan.initiator, "mirror", 8);
            outcome.effect((target, plan.initiator));
            outcome
        }

        fn apply_effect(
            &self,
            world: &mut EffectContext<'_, Ledger>,
            (target, from): (usize, usize),
        ) {
            let node = world.node_mut(target);
            node.log = fold(node.log, from as u64);
            world.record_bandwidth(target, "mirror-effect", 1);
        }

        fn effect_target(&self, &(target, _): &(usize, usize)) -> Option<usize> {
            Some(target)
        }
    }

    fn ledgers(n: usize, seed: u64) -> Simulator<Ledger> {
        Simulator::new((0..n).map(|id| Ledger { id, log: 0 }).collect(), seed)
    }

    #[test]
    fn cross_shard_batches_match_the_simulator() {
        const NODES: usize = 24;
        let cfg = FaultConfig {
            drop_rate: 0.1,
            delay_rate: 0.2,
            duplicate_rate: 0.2,
            max_delay_cycles: 2,
            crash_rate: 0.05,
            downtime_cycles: 1,
            fault_seed: 5,
        };
        for num_actors in [2, 3, 8] {
            // The premise: the first batch has an owner lending two or more
            // guests, and no plan stays inside one shard.
            let shard_size = NODES.div_ceil(num_actors);
            let plans: Vec<ExchangePlan<()>> = (0..NODES)
                .map(|i| ExchangePlan {
                    initiator: i,
                    destination: Some((i + NODES / 2) % NODES),
                    payload: (),
                })
                .collect();
            let first = &conflict_free_batches(&plans, NODES)[0];
            let mut lent = vec![0usize; num_actors];
            for &p in first {
                let (from, to) = (plans[p].initiator, plans[p].destination.unwrap());
                assert_ne!(from / shard_size, to / shard_size);
                lent[to / shard_size] += 1;
            }
            assert!(lent.iter().any(|&l| l >= 2), "actors = {num_actors}");

            for faulted in [false, true] {
                let label = format!("actors = {num_actors}, faulted = {faulted}");
                let mut seeded = ledgers(NODES, 3);
                let mut reference = ledgers(NODES, 3);
                let mut transport = TransportRuntime::from_simulator(
                    &mut seeded,
                    num_actors,
                    DeliverySchedule::canonical(),
                );
                let mut ref_faults: FaultPlan<()> = FaultPlan::new(cfg);
                let mut rt_faults: FaultPlan<()> = FaultPlan::new(cfg);
                for _ in 0..6 {
                    if faulted {
                        reference.drive(
                            &MirrorProtocol,
                            RunOptions::cycles(1).faulted(&mut ref_faults),
                            |_, _| {},
                        );
                        transport.drive(
                            &MirrorProtocol,
                            RunOptions::cycles(1).faulted(&mut rt_faults),
                        );
                    } else {
                        reference.drive(&MirrorProtocol, RunOptions::cycles(1), |_, _| {});
                        transport.drive(&MirrorProtocol, RunOptions::cycles(1));
                    }
                }
                let sim_nodes: Vec<&Ledger> = reference.nodes().iter().collect();
                let rt_nodes: Vec<&Ledger> = transport.nodes().collect();
                assert_eq!(sim_nodes, rt_nodes, "{label}: node states diverged");
                assert_eq!(
                    reference.bandwidth.totals(),
                    transport.bandwidth.totals(),
                    "{label}: bandwidth diverged"
                );
                assert_eq!(ref_faults.fingerprint(), rt_faults.fingerprint(), "{label}");
            }
        }
    }

    /// Declares the right target but writes its neighbour.
    struct StrayEffect;

    impl GossipProtocol for StrayEffect {
        type Node = Counter;
        type Payload = ();
        type Effect = usize;
        type Scratch = ();

        fn scratch(&self) {}

        fn plan(
            &self,
            world: &CycleContext<'_, Counter>,
            idx: usize,
            rng: &mut rand::rngs::StdRng,
            out: &mut Vec<ExchangePlan<()>>,
        ) {
            RingProtocol.plan(world, idx, rng, out);
        }

        fn commit(
            &self,
            cycle: u64,
            plan: &ExchangePlan<()>,
            initiator: &mut Counter,
            destination: Option<&mut Counter>,
            rng: &mut rand::rngs::StdRng,
            scratch: &mut (),
        ) -> CommitOutcome<usize> {
            RingProtocol.commit(cycle, plan, initiator, destination, rng, scratch)
        }

        fn apply_effect(&self, world: &mut EffectContext<'_, Counter>, target: usize) {
            world.node_mut(target + 1).effects += 1;
        }

        fn effect_target(&self, effect: &usize) -> Option<usize> {
            Some(*effect)
        }
    }

    #[test]
    #[should_panic(expected = "shard actor hung up")]
    fn an_effect_writing_past_its_target_panics() {
        let mut sim = counters(8, 1);
        let mut transport =
            TransportRuntime::from_simulator(&mut sim, 2, DeliverySchedule::canonical());
        transport.drive(&StrayEffect, RunOptions::cycles(1));
    }

    #[test]
    fn actor_restarts_leave_the_run_byte_identical() {
        let mut sim = counters(23, 7);
        let mut reference = counters(23, 7);
        let mut transport =
            TransportRuntime::from_simulator(&mut sim, 4, DeliverySchedule::canonical());
        transport.schedule_actor_restart(1, 0);
        transport.schedule_actor_restart(1, 3);
        transport.schedule_actor_restart(2, 2);
        reference.drive(&RingProtocol, RunOptions::cycles(4), |_, _| {});
        transport.drive(&RingProtocol, RunOptions::cycles(4));
        assert_matches_simulator(&reference, &transport, "with actor restarts");
    }

    #[test]
    fn seeded_schedules_are_deterministic() {
        let run = |schedule: DeliverySchedule| {
            let mut sim = counters(23, 7);
            let mut transport = TransportRuntime::from_simulator(&mut sim, 4, schedule);
            let report = transport.drive(&RingProtocol, RunOptions::cycles(3));
            let nodes: Vec<Counter> = transport.nodes().cloned().collect();
            (nodes, transport.bandwidth.totals(), report)
        };
        assert_eq!(
            run(DeliverySchedule::seeded(42)),
            run(DeliverySchedule::seeded(42)),
            "same (seed, schedule) must be byte-identical"
        );
        // A seeded schedule still commits the same exchanges (the ring plan
        // list is a permutation), just in a different total order.
        let (_, totals, report) = run(DeliverySchedule::seeded(42));
        let (_, canonical_totals, canonical_report) = run(DeliverySchedule::canonical());
        assert_eq!(report.exchanges(), canonical_report.exchanges());
        assert_eq!(totals, canonical_totals);
    }

    #[test]
    fn until_complete_stops_with_the_simulator() {
        // The ring never quiets, so cap at the cycle budget; both drivers
        // must agree on cycles_run.
        let mut sim = counters(6, 13);
        let mut reference = counters(6, 13);
        let mut transport =
            TransportRuntime::from_simulator(&mut sim, 3, DeliverySchedule::canonical());
        let ref_run = reference.drive(&RingProtocol, RunOptions::until_complete(5), |_, _| {});
        let rt_run = transport.drive(&RingProtocol, RunOptions::until_complete(5));
        assert_eq!(ref_run, rt_run);
        assert_matches_simulator(&reference, &transport, "until-complete");
    }

    #[test]
    #[should_panic(expected = "actor count")]
    fn thread_override_is_rejected() {
        let mut sim = counters(4, 1);
        let mut transport =
            TransportRuntime::from_simulator(&mut sim, 2, DeliverySchedule::canonical());
        transport.drive(&RingProtocol, RunOptions::cycles(1).threads(2));
    }

    #[test]
    #[should_panic(expected = "oracle")]
    fn oracle_mode_is_rejected() {
        let mut sim = counters(4, 1);
        let mut transport =
            TransportRuntime::from_simulator(&mut sim, 2, DeliverySchedule::canonical());
        transport.drive(&RingProtocol, RunOptions::cycles(1).oracle());
    }

    #[test]
    fn partitioning_covers_the_population() {
        let mut sim = counters(10, 3);
        let transport =
            TransportRuntime::from_simulator(&mut sim, 4, DeliverySchedule::canonical());
        assert_eq!(transport.num_nodes(), 10);
        // ceil(10/4) = 3 per shard → 4 shards: 3+3+3+1.
        assert_eq!(transport.num_actors(), 4);
        assert_eq!(transport.nodes().count(), 10);
        for idx in 0..10 {
            assert_eq!(transport.node(idx), sim.node(idx));
        }
    }
}
