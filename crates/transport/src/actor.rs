//! The shard actor: one thread owning one contiguous slice of the node
//! population, driven entirely by messages.
//!
//! An actor holds `nodes[base .. base + len]` of the global population and
//! never touches anything else. All coordination flows through two FIFO
//! mailboxes (see [`crate::mailbox`]): commands arrive from the sequencer as
//! [`ToShard`] messages, replies go back as [`FromShard`]. The actor has a
//! single sender (the sequencer), so the order it observes commands in *is*
//! the sequencer's send order.
//!
//! The protocol per cycle, in the order the sequencer sends it:
//! `Transitions` (crash/restart hooks) → `Prepare` (per-node bookkeeping,
//! replies with a state snapshot) → `Plan` (read-only planning against the
//! assembled world, replies with the shard's plans) → per batch, each
//! message at most once per shard: `Lend` (move the listed nodes out to
//! serve as remote commits' destinations, reply with them as `Guests` in
//! request order) / `Commit` (execute plans whose initiator is local,
//! against local nodes or guests the jobs carry) / `Apply` (move the
//! mutated guests back in, then apply the batch's routed effects in plan
//! order) → `FinishCycle` (end-of-cycle hooks, replies whether any alive
//! local wants more) → eventually `Stop`, returning the shard's state to the
//! sequencer.
//!
//! A lent node's slot stays empty from its `Lend` until the same batch's
//! `Apply`. Nothing reads it in that window: a conflict-free batch names
//! the node in no other plan, so the shard's own `Commit` in that batch
//! never touches it, and the FIFO mailbox delivers the `Apply` before any
//! later batch's or cycle's command.

use std::sync::Arc;

use p3q_sim::exchange::{commit_rng, plan_rng};
use p3q_sim::{
    BandwidthRecorder, CommitOutcome, CycleContext, EffectContext, ExchangePlan, GossipProtocol,
    Membership,
};

use crate::mailbox::{MailboxReceiver, MailboxSender};

/// Panic message for a read of a slot whose node is out on loan.
const LENT_OUT: &str = "a lent node was read before its batch's Apply returned it";

/// One commit assigned to the initiator's shard: the plan, its index in the
/// cycle's global plan order (fixing its RNG stream), and — when the
/// destination lives on another shard — the destination node itself, moved
/// out of its shard by [`ToShard::Lend`].
#[derive(Debug)]
pub struct CommitJob<N, Pl> {
    /// The planned exchange to execute.
    pub plan: ExchangePlan<Pl>,
    /// Position in the cycle's global plan order.
    pub plan_idx: usize,
    /// The remote destination, if the destination is not local to the
    /// committing shard.
    pub guest: Option<N>,
}

/// What one executed [`CommitJob`] produced: the protocol outcome plus the
/// mutated guest (tagged with its global index) for the sequencer to move
/// home via [`ToShard::Apply`].
#[derive(Debug)]
pub struct JobOutcome<N, E> {
    /// Position in the cycle's global plan order.
    pub plan_idx: usize,
    /// Deferred charges and effects returned by the commit.
    pub outcome: CommitOutcome<E>,
    /// The mutated guest node and its global index, if the job had one.
    pub guest: Option<(usize, N)>,
}

/// Commands the sequencer sends a shard actor (see the module docs for the
/// per-cycle protocol).
#[derive(Debug)]
pub enum ToShard<N, Pl, E> {
    /// Run the fault-transition hooks on the listed local nodes (restarts
    /// first, then crashes — engine order).
    Transitions {
        /// The executing cycle.
        cycle: u64,
        /// Local nodes that just rejoined.
        restarted: Vec<usize>,
        /// Local nodes that just crashed.
        crashed: Vec<usize>,
    },
    /// Run per-node preparation on alive locals, then reply with a
    /// [`FromShard::Snapshot`] of the shard's post-prepare state.
    Prepare {
        /// The executing cycle.
        cycle: u64,
        /// Who is alive this cycle.
        membership: Arc<Membership>,
    },
    /// Plan all alive locals against the assembled world snapshot; reply
    /// with [`FromShard::Plans`].
    Plan {
        /// The executing cycle.
        cycle: u64,
        /// The cycle seed all per-node plan RNGs derive from.
        cycle_seed: u64,
        /// Post-prepare snapshot of the entire population.
        world: Arc<Vec<N>>,
        /// Who is alive this cycle.
        membership: Arc<Membership>,
    },
    /// Move the listed local nodes out (they are about to be remote
    /// commits' destinations); reply with [`FromShard::Guests`].
    Lend {
        /// Global indices of the nodes to lend.
        nodes: Vec<usize>,
    },
    /// Execute the given jobs (all initiators local, in ascending plan
    /// order); reply with [`FromShard::Outcomes`].
    Commit {
        /// The executing (pre-increment) cycle.
        cycle: u64,
        /// The cycle seed all per-plan commit RNGs derive from.
        cycle_seed: u64,
        /// The jobs to run, ascending by `plan_idx`.
        jobs: Vec<CommitJob<N, Pl>>,
    },
    /// Close a batch: move every lent node back, then apply the effects
    /// routed here; bandwidth they record lands in the shard's local
    /// recorder.
    Apply {
        /// The committing (pre-increment) cycle.
        cycle: u64,
        /// Post-commit states of lent nodes, by global index.
        restores: Vec<(usize, N)>,
        /// Effects with their local target, in plan order.
        effects: Vec<(usize, E)>,
    },
    /// Run end-of-cycle bookkeeping on **all** locals (departed included);
    /// reply with [`FromShard::WantsMore`] over the alive ones.
    FinishCycle {
        /// The now-completed (post-increment) cycle.
        cycle: u64,
        /// Who is alive.
        membership: Arc<Membership>,
    },
    /// Shut down: the actor returns its nodes and bandwidth recorder.
    Stop,
}

/// Replies a shard actor sends the sequencer.
#[derive(Debug)]
pub enum FromShard<N, Pl, E> {
    /// Reply to [`ToShard::Prepare`]: the shard's post-prepare node states.
    Snapshot(Vec<N>),
    /// Reply to [`ToShard::Plan`]: plans of the shard's alive locals, in
    /// ascending initiator order.
    Plans(Vec<ExchangePlan<Pl>>),
    /// Reply to [`ToShard::Lend`]: the requested nodes, in request order.
    Guests(Vec<N>),
    /// Reply to [`ToShard::Commit`]: one outcome per job, ascending by
    /// `plan_idx`.
    Outcomes(Vec<JobOutcome<N, E>>),
    /// Reply to [`ToShard::FinishCycle`]: whether any alive local's state
    /// could still re-ignite gossip.
    WantsMore(bool),
}

/// Disjoint `&mut`s to two distinct local nodes — the same-shard pairwise
/// commit shape.
fn local_pair_mut<N>(nodes: &mut [N], a: usize, b: usize) -> (&mut N, &mut N) {
    assert_ne!(a, b, "a gossip exchange needs two distinct nodes");
    if a < b {
        let (lo, hi) = nodes.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = nodes.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// The shard actor body: processes commands until [`ToShard::Stop`] (or a
/// hangup), then returns the shard's node states and its local bandwidth
/// recorder for the sequencer to reassemble and merge.
pub(crate) fn run_actor<P, R, S>(
    proto: &P,
    base: usize,
    nodes: Vec<P::Node>,
    rx: R,
    tx: S,
) -> (Vec<P::Node>, BandwidthRecorder)
where
    P: GossipProtocol,
    P::Node: Clone,
    R: MailboxReceiver<ToShard<P::Node, P::Payload, P::Effect>>,
    S: MailboxSender<FromShard<P::Node, P::Payload, P::Effect>>,
{
    // `None` only while the node is lent out (see the module docs).
    let mut slots: Vec<Option<P::Node>> = nodes.into_iter().map(Some).collect();
    let mut bandwidth = BandwidthRecorder::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            ToShard::Transitions {
                cycle,
                restarted,
                crashed,
            } => {
                for idx in restarted {
                    proto.on_restart(held(&mut slots[idx - base]), cycle);
                }
                for idx in crashed {
                    proto.on_crash(held(&mut slots[idx - base]), cycle);
                }
            }
            ToShard::Prepare { cycle, membership } => {
                for (offset, slot) in slots.iter_mut().enumerate() {
                    if membership.is_alive(base + offset) {
                        proto.prepare(held(slot), cycle);
                    }
                }
                let snapshot = slots
                    .iter()
                    .map(|slot| slot.as_ref().expect(LENT_OUT).clone())
                    .collect();
                if tx.send(FromShard::Snapshot(snapshot)).is_err() {
                    break;
                }
            }
            ToShard::Plan {
                cycle,
                cycle_seed,
                world,
                membership,
            } => {
                let ctx = CycleContext::new(&world, &membership, cycle);
                let mut plans = Vec::new();
                for offset in 0..slots.len() {
                    let idx = base + offset;
                    if membership.is_alive(idx) {
                        let mut rng = plan_rng(cycle_seed, idx);
                        proto.plan(&ctx, idx, &mut rng, &mut plans);
                    }
                }
                if tx.send(FromShard::Plans(plans)).is_err() {
                    break;
                }
            }
            ToShard::Lend { nodes } => {
                let guests = nodes
                    .into_iter()
                    .map(|idx| slots[idx - base].take().expect(LENT_OUT))
                    .collect();
                if tx.send(FromShard::Guests(guests)).is_err() {
                    break;
                }
            }
            ToShard::Commit {
                cycle,
                cycle_seed,
                jobs,
            } => {
                let mut scratch = proto.scratch();
                let mut results = Vec::with_capacity(jobs.len());
                for job in jobs {
                    let mut rng = commit_rng(cycle_seed, job.plan_idx);
                    let plan = &job.plan;
                    let (outcome, guest) = match (plan.destination, job.guest) {
                        (None, _) => {
                            let initiator = held(&mut slots[plan.initiator - base]);
                            let outcome =
                                proto.commit(cycle, plan, initiator, None, &mut rng, &mut scratch);
                            (outcome, None)
                        }
                        (Some(dest), Some(mut guest)) => {
                            let initiator = held(&mut slots[plan.initiator - base]);
                            let outcome = proto.commit(
                                cycle,
                                plan,
                                initiator,
                                Some(&mut guest),
                                &mut rng,
                                &mut scratch,
                            );
                            (outcome, Some((dest, guest)))
                        }
                        (Some(dest), None) => {
                            let (initiator, destination) =
                                local_pair_mut(&mut slots, plan.initiator - base, dest - base);
                            let outcome = proto.commit(
                                cycle,
                                plan,
                                held(initiator),
                                Some(held(destination)),
                                &mut rng,
                                &mut scratch,
                            );
                            (outcome, None)
                        }
                    };
                    results.push(JobOutcome {
                        plan_idx: job.plan_idx,
                        outcome,
                        guest,
                    });
                }
                if tx.send(FromShard::Outcomes(results)).is_err() {
                    break;
                }
            }
            ToShard::Apply {
                cycle,
                restores,
                effects,
            } => {
                for (idx, state) in restores {
                    let previous = slots[idx - base].replace(state);
                    assert!(previous.is_none(), "a restore overwrote a node never lent");
                }
                // One-node window: an effect may touch only the node its
                // `effect_target` names.
                for (target, effect) in effects {
                    let node = held(&mut slots[target - base]);
                    let mut world = EffectContext::windowed(
                        std::slice::from_mut(node),
                        &mut bandwidth,
                        cycle,
                        target,
                    );
                    proto.apply_effect(&mut world, effect);
                }
            }
            ToShard::FinishCycle { cycle, membership } => {
                for slot in slots.iter_mut() {
                    proto.finish_cycle(held(slot), cycle);
                }
                let wants_more = slots.iter().enumerate().any(|(offset, slot)| {
                    membership.is_alive(base + offset)
                        && proto.wants_more(slot.as_ref().expect(LENT_OUT), cycle)
                });
                if tx.send(FromShard::WantsMore(wants_more)).is_err() {
                    break;
                }
            }
            ToShard::Stop => break,
        }
    }
    let nodes = slots
        .into_iter()
        .map(|slot| slot.expect(LENT_OUT))
        .collect();
    (nodes, bandwidth)
}

/// The node in a slot that is not lent out.
fn held<N>(slot: &mut Option<N>) -> &mut N {
    slot.as_mut().expect(LENT_OUT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_pair_mut_is_disjoint_in_both_orders() {
        let mut v = vec![0u32, 1, 2, 3];
        {
            let (a, b) = local_pair_mut(&mut v, 0, 3);
            *a += 10;
            *b += 10;
        }
        {
            let (a, b) = local_pair_mut(&mut v, 2, 1);
            *a += 100;
            *b += 100;
        }
        assert_eq!(v, vec![10, 101, 102, 13]);
    }

    #[test]
    #[should_panic(expected = "distinct nodes")]
    fn local_pair_mut_rejects_same_index() {
        let mut v = vec![0u32; 2];
        let _ = local_pair_mut(&mut v, 1, 1);
    }
}
