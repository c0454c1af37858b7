use super::{RunError, Sim, Snapshot};
use crate::config::SimConfig;
use crate::hash::hash_of;
use crate::ids::{ClientId, NodeId, ServerId};
use crate::node::{Ctx, Node, Protocol};
use crate::trace::StepInfo;
use std::sync::Arc;

/// A toy majority-ack register: the client broadcasts `Store(v)` and
/// responds once a majority acks; servers remember the last value.
struct Toy;

#[derive(Clone, Debug, PartialEq)]
enum Msg {
    Store(u32),
    Ack(u32),
    Gossip,
}

impl Protocol for Toy {
    type Msg = Msg;
    type Inv = u32;
    type Resp = u32;
    type Server = ToyServer;
    type Client = ToyClient;
}

#[derive(Clone, Default)]
struct ToyServer {
    value: u32,
    gossip_on_store: bool,
    peers: u32,
}

impl Node<Toy> for ToyServer {
    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<Toy>) {
        match msg {
            Msg::Store(v) => {
                self.value = v;
                if self.gossip_on_store {
                    for i in 0..self.peers {
                        if NodeId::server(i) != ctx.me() {
                            ctx.send(NodeId::server(i), Msg::Gossip);
                        }
                    }
                }
                ctx.send(from, Msg::Ack(v));
            }
            Msg::Ack(_) | Msg::Gossip => {}
        }
    }
    fn state_bits(&self) -> f64 {
        32.0
    }
    fn metadata_bits(&self) -> f64 {
        1.0
    }
    fn digest(&self) -> u64 {
        hash_of(&self.value)
    }
}

#[derive(Clone, Default)]
struct ToyClient {
    n: u32,
    acks: u32,
    need: u32,
    pending: Option<u32>,
}

impl Node<Toy> for ToyClient {
    fn on_invoke(&mut self, v: u32, ctx: &mut Ctx<Toy>) {
        self.acks = 0;
        self.pending = Some(v);
        ctx.broadcast_to_servers(self.n, Msg::Store(v));
    }
    fn on_message(&mut self, _from: NodeId, msg: Msg, ctx: &mut Ctx<Toy>) {
        if let (Msg::Ack(v), Some(p)) = (&msg, self.pending) {
            if *v == p {
                self.acks += 1;
                if self.acks == self.need {
                    self.pending = None;
                    ctx.respond(p);
                }
            }
        }
    }
    fn digest(&self) -> u64 {
        hash_of(&(self.acks, self.need, self.pending))
    }
}

fn world(n: u32, need: u32) -> Sim<Toy> {
    Sim::new(
        SimConfig::default(),
        (0..n)
            .map(|_| ToyServer {
                peers: n,
                ..ToyServer::default()
            })
            .collect(),
        vec![ToyClient {
            n,
            need,
            ..ToyClient::default()
        }],
    )
}

#[test]
fn op_completes_with_majority() {
    let mut sim = world(5, 3);
    sim.invoke(ClientId(0), 42).unwrap();
    assert!(sim.has_open_op(ClientId(0)));
    let resp = sim.run_until_op_completes(ClientId(0)).unwrap();
    assert_eq!(resp, 42);
    assert!(!sim.has_open_op(ClientId(0)));
    let ops = sim.ops();
    assert_eq!(ops.len(), 1);
    assert!(ops[0].is_complete());
    assert!(ops[0].invoked_at < ops[0].responded_at.unwrap());
}

#[test]
fn op_survives_f_failures() {
    let mut sim = world(5, 3);
    sim.fail_last_servers(2);
    sim.invoke(ClientId(0), 7).unwrap();
    assert_eq!(sim.run_until_op_completes(ClientId(0)).unwrap(), 7);
}

#[test]
fn op_stuck_when_too_many_failures() {
    let mut sim = world(5, 3);
    sim.fail_last_servers(3);
    sim.invoke(ClientId(0), 7).unwrap();
    assert_eq!(
        sim.run_until_op_completes(ClientId(0)),
        Err(RunError::Stuck {
            client: ClientId(0)
        })
    );
}

#[test]
fn frozen_client_messages_are_delayed_but_kept() {
    let mut sim = world(3, 3);
    sim.invoke(ClientId(0), 9).unwrap();
    sim.freeze(NodeId::client(0));
    // Client messages can't be delivered: quiescence without response.
    sim.run_to_quiescence().unwrap();
    assert!(sim.has_open_op(ClientId(0)));
    assert_eq!(sim.in_flight(NodeId::client(0), NodeId::server(0)), 1);
    // Unfreeze: the delayed messages flow and the op completes.
    sim.unfreeze(NodeId::client(0));
    assert_eq!(sim.run_until_op_completes(ClientId(0)).unwrap(), 9);
}

#[test]
fn double_invocation_rejected() {
    let mut sim = world(3, 2);
    sim.invoke(ClientId(0), 1).unwrap();
    assert_eq!(
        sim.invoke(ClientId(0), 2),
        Err(RunError::OperationPending {
            client: ClientId(0)
        })
    );
}

#[test]
fn invoke_at_failed_client_rejected() {
    let mut sim = world(3, 2);
    sim.fail(NodeId::client(0));
    assert_eq!(
        sim.invoke(ClientId(0), 1),
        Err(RunError::NodeUnavailable {
            node: NodeId::client(0)
        })
    );
}

#[test]
fn fork_and_diverge() {
    let mut sim = world(3, 2);
    sim.invoke(ClientId(0), 5).unwrap();
    let fork = sim.fork();
    assert_eq!(sim.digest(), fork.digest());
    // Advance only the original.
    sim.step_fair().unwrap();
    assert_ne!(sim.digest(), fork.digest());
    // Both copies independently complete the operation.
    let mut fork = fork;
    assert_eq!(sim.run_until_op_completes(ClientId(0)).unwrap(), 5);
    assert_eq!(fork.run_until_op_completes(ClientId(0)).unwrap(), 5);
}

#[test]
fn fork_shares_state_until_first_write() {
    let mut sim = world(4, 3);
    sim.invoke(ClientId(0), 5).unwrap();
    let fork = sim.fork();
    // Structural sharing: the fork points at the same node vectors and
    // channel table.
    assert!(
        Arc::ptr_eq(&sim.servers, &fork.servers),
        "fork must share server state"
    );
    assert!(Arc::ptr_eq(&sim.clients, &fork.clients));
    assert!(
        Arc::ptr_eq(&sim.channels, &fork.channels),
        "fork must share the channel table"
    );
    assert!(Arc::ptr_eq(&sim.ops, &fork.ops));
    // The first delivery claims unique ownership of the hot trio — the
    // node vectors and the channel table are promoted to owned copies in
    // one go, so later steps pay no refcount traffic at all...
    sim.deliver_one(NodeId::client(0), NodeId::server(1))
        .unwrap();
    assert!(
        !Arc::ptr_eq(&sim.servers, &fork.servers),
        "mutated server vector must be promoted to an owned copy"
    );
    assert!(!Arc::ptr_eq(&sim.channels, &fork.channels));
    assert!(!Arc::ptr_eq(&sim.clients, &fork.clients));
    // ...while everything outside the hot trio stays shared, and the
    // fork's view is bit-for-bit the pre-step world.
    assert!(Arc::ptr_eq(&sim.ops, &fork.ops));
    assert_eq!(fork.server(ServerId(1)).value, 0);
    assert_eq!(sim.server(ServerId(1)).value, 5);
}

#[test]
fn promoted_state_never_aliases() {
    let mut a = world(3, 2);
    a.invoke(ClientId(0), 1).unwrap();
    let mut b = a.fork();
    // Diverge: deliver different messages in each fork.
    a.deliver_one(NodeId::client(0), NodeId::server(0)).unwrap();
    b.deliver_one(NodeId::client(0), NodeId::server(1)).unwrap();
    assert_eq!(a.server(ServerId(0)).value, 1);
    assert_eq!(a.server(ServerId(1)).value, 0);
    assert_eq!(b.server(ServerId(0)).value, 0);
    assert_eq!(b.server(ServerId(1)).value, 1);
}

#[test]
fn snapshot_digest_is_cached_and_stable() {
    let mut sim = world(3, 2);
    sim.invoke(ClientId(0), 5).unwrap();
    let snap = sim.snapshot();
    assert_eq!(snap.digest(), sim.digest());
    assert_eq!(snap.digest(), snap.clone().digest());
    // The snapshot is unaffected by the original advancing.
    sim.step_fair().unwrap();
    assert_ne!(snap.digest(), sim.digest());
    // Forking off the snapshot replays to the same end state.
    let mut replay = snap.fork();
    replay.step_fair().unwrap();
    assert_eq!(replay.digest(), sim.digest());
}

#[test]
fn snapshot_derefs_to_sim() {
    let mut sim = world(3, 2);
    sim.invoke(ClientId(0), 4).unwrap();
    let snap: Snapshot<Toy> = sim.into_snapshot();
    // &Snapshot works where &Sim observations are needed.
    assert_eq!(snap.server_count(), 3);
    assert_eq!(snap.total_in_flight(), 3);
    assert!(snap.has_open_op(ClientId(0)));
}

#[test]
fn deterministic_execution() {
    let run = || {
        let mut sim = world(5, 3);
        sim.invoke(ClientId(0), 11).unwrap();
        sim.run_to_quiescence().unwrap();
        (sim.digest(), sim.now())
    };
    assert_eq!(run(), run());
}

#[test]
fn scripted_delivery() {
    let mut sim = world(3, 2);
    sim.invoke(ClientId(0), 6).unwrap();
    // Deliver only to server 2 first, by hand.
    sim.deliver_one(NodeId::client(0), NodeId::server(2))
        .unwrap();
    assert_eq!(sim.server(ServerId(2)).value, 6);
    assert_eq!(sim.server(ServerId(0)).value, 0);
    // Nonexistent message errors.
    assert_eq!(
        sim.deliver_one(NodeId::server(0), NodeId::server(1)),
        Err(RunError::NoSuchMessage {
            from: NodeId::server(0),
            to: NodeId::server(1)
        })
    );
}

#[test]
fn step_options_exclude_blocked_endpoints() {
    let mut sim = world(3, 3);
    sim.invoke(ClientId(0), 1).unwrap();
    assert_eq!(sim.step_options().len(), 3);
    sim.fail(NodeId::server(1));
    assert_eq!(sim.step_options().len(), 2);
    sim.freeze(NodeId::server(0));
    assert_eq!(sim.step_options().len(), 1);
}

#[test]
fn gossip_flush() {
    let mut sim = Sim::<Toy>::new(
        SimConfig::with_gossip(),
        (0..3)
            .map(|_| ToyServer {
                peers: 3,
                gossip_on_store: true,
                ..ToyServer::default()
            })
            .collect(),
        vec![ToyClient {
            n: 3,
            need: 3,
            ..ToyClient::default()
        }],
    );
    sim.invoke(ClientId(0), 2).unwrap();
    sim.deliver_one(NodeId::client(0), NodeId::server(0))
        .unwrap();
    // Server 0 gossiped to servers 1 and 2.
    assert_eq!(sim.in_flight(NodeId::server(0), NodeId::server(1)), 1);
    let flushed = sim.flush_server_channels().unwrap();
    assert_eq!(flushed, 2);
    assert_eq!(sim.in_flight(NodeId::server(0), NodeId::server(1)), 0);
    // Client->server messages are untouched by the flush.
    assert_eq!(sim.in_flight(NodeId::client(0), NodeId::server(1)), 1);
}

#[test]
#[should_panic(expected = "no-gossip model")]
fn gossip_panics_when_disabled() {
    let mut sim = Sim::<Toy>::new(
        SimConfig::without_gossip(),
        (0..3)
            .map(|_| ToyServer {
                peers: 3,
                gossip_on_store: true,
                ..ToyServer::default()
            })
            .collect(),
        vec![ToyClient {
            n: 3,
            need: 3,
            ..ToyClient::default()
        }],
    );
    sim.invoke(ClientId(0), 2).unwrap();
    let _ = sim.deliver_one(NodeId::client(0), NodeId::server(0));
}

#[test]
fn meter_tracks_server_bits() {
    let mut sim = world(4, 2);
    sim.invoke(ClientId(0), 3).unwrap();
    sim.run_to_quiescence().unwrap();
    let snap = sim.storage();
    assert_eq!(snap.per_server_peak_bits, vec![32.0; 4]);
    assert_eq!(snap.peak_total_bits, 4.0 * 32.0);
    assert_eq!(snap.peak_max_bits, 32.0);
    assert_eq!(snap.per_server_peak_metadata_bits, vec![1.0; 4]);
    assert!(snap.points_observed > 1);
}

#[test]
fn step_limit_reported() {
    // A need that can never be met keeps no messages flowing after
    // quiescence, so force the limit with a tiny budget instead.
    let mut sim = Sim::<Toy>::new(
        SimConfig::default().step_limit(2),
        (0..5)
            .map(|_| ToyServer {
                peers: 5,
                ..ToyServer::default()
            })
            .collect(),
        vec![ToyClient {
            n: 5,
            need: 5,
            ..ToyClient::default()
        }],
    );
    sim.invoke(ClientId(0), 1).unwrap();
    assert_eq!(
        sim.run_until_op_completes(ClientId(0)),
        Err(RunError::StepLimit { steps: 2 })
    );
}

#[test]
fn run_until_requires_open_op() {
    let mut sim = world(3, 2);
    assert_eq!(
        sim.run_until_op_completes(ClientId(0)),
        Err(RunError::NoOpenOperation {
            client: ClientId(0)
        })
    );
}

#[test]
fn step_with_caller_choice() {
    let mut sim = world(3, 3);
    sim.invoke(ClientId(0), 8).unwrap();
    // Always pick the last option: server 2 gets the first delivery.
    let info = sim.step_with(|opts| opts.len() - 1).unwrap();
    assert_eq!(
        info,
        StepInfo::Delivered {
            from: NodeId::client(0),
            to: NodeId::server(2)
        }
    );
    assert_eq!(sim.server(ServerId(2)).value, 8);
}

#[test]
fn cut_link_holds_messages_until_healed() {
    let mut sim = world(3, 3);
    sim.invoke(ClientId(0), 4).unwrap();
    let c = NodeId::client(0);
    let s1 = NodeId::server(1);
    assert_eq!(sim.cut_link(c, s1), StepInfo::LinkCut { from: c, to: s1 });
    // The cut channel is not schedulable and direct delivery refuses it,
    // but the queued message is held, not lost.
    assert!(!sim.step_options().contains(&(c, s1)));
    assert_eq!(
        sim.deliver_one(c, s1),
        Err(RunError::LinkDown { from: c, to: s1 })
    );
    assert_eq!(sim.in_flight(c, s1), 1);
    // Only the reverse direction was cut-free all along.
    assert!(sim.cut_link_list().contains(&(c, s1)));
    sim.heal_link(c, s1);
    assert!(sim.cut_link_list().is_empty());
    assert_eq!(sim.run_until_op_completes(ClientId(0)).unwrap(), 4);
}

#[test]
fn partition_and_heal_all() {
    let mut sim = world(3, 3);
    let client = [NodeId::client(0)];
    let servers = [NodeId::server(0), NodeId::server(1)];
    let steps = sim.partition(&client, &servers);
    assert_eq!(steps.len(), 4); // both directions, both servers
    sim.invoke(ClientId(0), 5).unwrap();
    // Only server 2 is reachable; a 3-ack quorum cannot form.
    sim.run_to_quiescence().unwrap();
    assert!(sim.has_open_op(ClientId(0)));
    assert_eq!(sim.server(ServerId(2)).value, 5);
    assert_eq!(sim.server(ServerId(0)).value, 0);
    let healed = sim.heal_all_links();
    assert_eq!(healed.len(), 4);
    assert_eq!(sim.run_until_op_completes(ClientId(0)).unwrap(), 5);
}

#[test]
fn drop_head_loses_exactly_one_message() {
    let mut sim = world(3, 3);
    sim.invoke(ClientId(0), 6).unwrap();
    let c = NodeId::client(0);
    let s0 = NodeId::server(0);
    assert_eq!(
        sim.drop_head(c, s0).unwrap(),
        StepInfo::Dropped { from: c, to: s0 }
    );
    assert_eq!(sim.in_flight(c, s0), 0);
    // Dropping from the now-empty channel errors.
    assert_eq!(
        sim.drop_head(c, s0),
        Err(RunError::NoSuchMessage { from: c, to: s0 })
    );
    // The 3-ack quorum can no longer form: the write is stuck.
    sim.run_to_quiescence().unwrap();
    assert!(sim.has_open_op(ClientId(0)));
    assert_eq!(sim.server(ServerId(0)).value, 0);
}

#[test]
fn duplicate_head_delivers_twice() {
    let mut sim = world(3, 3);
    sim.invoke(ClientId(0), 7).unwrap();
    let c = NodeId::client(0);
    let s0 = NodeId::server(0);
    assert_eq!(
        sim.duplicate_head(c, s0).unwrap(),
        StepInfo::Duplicated { from: c, to: s0 }
    );
    assert_eq!(sim.in_flight(c, s0), 2);
    sim.deliver_one(c, s0).unwrap();
    sim.deliver_one(c, s0).unwrap();
    // Both copies carried the same store; the server applied it (twice).
    assert_eq!(sim.server(ServerId(0)).value, 7);
    // The duplicate produced an extra ack, but the toy client still
    // counts correctly to its quorum and the op completes.
    assert_eq!(sim.run_until_op_completes(ClientId(0)).unwrap(), 7);
}

#[test]
fn delay_head_rotates_under_reordering() {
    let mut sim = Sim::<Toy>::new(
        SimConfig::default().reordering(),
        (0..2)
            .map(|_| ToyServer {
                peers: 2,
                ..ToyServer::default()
            })
            .collect(),
        vec![ToyClient {
            n: 2,
            need: 2,
            ..ToyClient::default()
        }],
    );
    let c = NodeId::client(0);
    let s0 = NodeId::server(0);
    sim.invoke(ClientId(0), 1).unwrap();
    sim.duplicate_head(c, s0).unwrap(); // queue len 2 so the rotation is visible
    let before = sim.digest();
    sim.delay_head(c, s0).unwrap();
    // Same multiset of messages (both are Store(1)), so the digest is the
    // rotation-invariant here; delivery still works.
    assert_eq!(sim.digest(), before);
    assert_eq!(sim.in_flight(c, s0), 2);
    sim.deliver_one(c, s0).unwrap();
    assert_eq!(sim.server(ServerId(0)).value, 1);
}

#[test]
#[should_panic(expected = "requires ChannelOrder::Any")]
fn delay_head_panics_under_fifo_with_queue() {
    let mut sim = world(3, 3);
    sim.invoke(ClientId(0), 1).unwrap();
    let c = NodeId::client(0);
    let s0 = NodeId::server(0);
    sim.duplicate_head(c, s0).unwrap();
    let _ = sim.delay_head(c, s0);
}

#[test]
fn delay_head_single_message_is_fifo_safe() {
    let mut sim = world(3, 3);
    sim.invoke(ClientId(0), 1).unwrap();
    let c = NodeId::client(0);
    let s0 = NodeId::server(0);
    assert_eq!(
        sim.delay_head(c, s0).unwrap(),
        StepInfo::Delayed { from: c, to: s0 }
    );
    assert_eq!(sim.in_flight(c, s0), 1);
}

#[test]
fn fail_purges_in_flight_channel_state() {
    let mut sim = world(5, 3);
    sim.invoke(ClientId(0), 9).unwrap();
    // Deliver to server 0 so it has an ack in flight back to the client.
    sim.deliver_one(NodeId::client(0), NodeId::server(0))
        .unwrap();
    assert_eq!(sim.in_flight(NodeId::server(0), NodeId::client(0)), 1);
    sim.fail(NodeId::server(0));
    // Both directions of the crashed node's channels are purged: no
    // orphaned queue survives for a later recover to resurrect.
    assert_eq!(sim.in_flight(NodeId::server(0), NodeId::client(0)), 0);
    assert_eq!(sim.in_flight(NodeId::client(0), NodeId::server(0)), 0);
    // The op still completes on the remaining majority.
    assert_eq!(sim.run_until_op_completes(ClientId(0)).unwrap(), 9);
}

#[test]
fn recover_rejoins_with_clean_channels() {
    let mut sim = world(3, 3);
    sim.invoke(ClientId(0), 3).unwrap();
    sim.fail(NodeId::server(2));
    // 3-of-3 quorum can't form with a crashed server.
    sim.run_to_quiescence().unwrap();
    assert!(sim.has_open_op(ClientId(0)));
    // The store queued toward the crashed server was purged at crash
    // time — recovery does not resurrect it, so the op stays pending...
    assert_eq!(
        sim.recover(NodeId::server(2)),
        StepInfo::Recovered {
            node: NodeId::server(2)
        }
    );
    sim.run_to_quiescence().unwrap();
    assert!(sim.has_open_op(ClientId(0)));
    assert_eq!(sim.server(ServerId(2)).value, 0);
    // ...but the recovered server serves new traffic: a fresh world-level
    // check that it is unblocked.
    assert!(!sim.is_failed(NodeId::server(2)));
    assert!(sim
        .step_options()
        .iter()
        .all(|&(f, t)| f != NodeId::server(2) && t != NodeId::server(2)));
}

#[test]
fn heal_lifts_freeze_and_cuts_together() {
    let mut sim = world(3, 3);
    let s1 = NodeId::server(1);
    sim.freeze(s1);
    sim.cut_link(NodeId::client(0), s1);
    sim.cut_link(s1, NodeId::client(0));
    sim.cut_link(NodeId::server(0), NodeId::server(2)); // untouched by heal(s1)
    sim.heal(s1);
    assert!(!sim.is_frozen(s1));
    assert_eq!(
        sim.cut_link_list(),
        vec![(NodeId::server(0), NodeId::server(2))]
    );
    sim.invoke(ClientId(0), 2).unwrap();
    assert_eq!(sim.run_until_op_completes(ClientId(0)).unwrap(), 2);
}

#[test]
fn digest_reflects_cut_links() {
    let mut sim = world(3, 2);
    let base = sim.digest();
    sim.cut_link(NodeId::client(0), NodeId::server(0));
    assert_ne!(sim.digest(), base, "cut links are part of the world state");
    sim.heal_link(NodeId::client(0), NodeId::server(0));
    assert_eq!(sim.digest(), base);
}

mod fork_properties {
    use super::*;
    use shmem_util::prop::prelude::*;
    use shmem_util::DetRng;

    /// Deterministic world construction with one invoked write and
    /// `pre_steps` fair steps taken.
    fn advanced_world(n: u32, v: u32, pre_steps: usize) -> Sim<Toy> {
        let mut sim = world(n, n.min(3));
        sim.invoke(ClientId(0), v).unwrap();
        for _ in 0..pre_steps {
            if sim.step_fair().is_none() {
                break;
            }
        }
        sim
    }

    /// Runs `steps` seeded-random steps and returns the final digest.
    fn run_schedule(mut sim: Sim<Toy>, seed: u64, steps: usize) -> u64 {
        let mut rng = DetRng::seed_from_u64(seed);
        for _ in 0..steps {
            if sim.step_with(|opts| rng.gen_range(0..opts.len())).is_none() {
                break;
            }
        }
        sim.digest()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A fork digests identically to its source until one of them
        /// takes a step, and the untouched side's digest never moves.
        #[test]
        fn prop_fork_digest_identical_until_divergence(
            n in 3u32..6,
            v in 1u32..1000,
            pre_steps in 0usize..6,
            post_steps in 1usize..6,
        ) {
            let mut sim = advanced_world(n, v, pre_steps);
            let fork = sim.fork();
            prop_assert_eq!(sim.digest(), fork.digest());
            let frozen = fork.digest();
            let mut advanced = 0usize;
            for _ in 0..post_steps {
                if sim.step_fair().is_some() {
                    advanced += 1;
                }
            }
            // The untouched fork is bit-for-bit where it was...
            prop_assert_eq!(fork.digest(), frozen);
            // ...and any delivered step moves the stepping side's digest
            // (a delivery always drains a channel slot).
            if advanced > 0 {
                prop_assert_ne!(sim.digest(), fork.digest());
            }
        }

        /// Copy-on-write promotion never aliases: two forks driven down
        /// different schedules end up exactly where fresh worlds driven
        /// down those schedules end up — neither fork sees the other's
        /// (or the source's) mutations.
        #[test]
        fn prop_promoted_forks_replay_like_fresh_worlds(
            n in 3u32..6,
            v in 1u32..1000,
            pre_steps in 0usize..4,
            seed in 0u64..1_000_000,
            steps in 1usize..10,
        ) {
            let base = advanced_world(n, v, pre_steps);
            let base_digest = base.digest();
            let da = run_schedule(base.fork(), seed, steps);
            let db = run_schedule(base.fork(), seed.wrapping_add(1), steps);
            // Divergent forks did not corrupt each other or the base:
            // each matches a from-scratch replay of its schedule.
            prop_assert_eq!(da, run_schedule(advanced_world(n, v, pre_steps), seed, steps));
            prop_assert_eq!(
                db,
                run_schedule(advanced_world(n, v, pre_steps), seed.wrapping_add(1), steps)
            );
            prop_assert_eq!(base.digest(), base_digest);
        }
    }
}

mod fault_determinism {
    use super::*;
    use shmem_util::prop::prelude::*;
    use shmem_util::DetRng;

    /// A reordering world with two clients, so fault schedules can mix
    /// concurrent invocations with drop/dup/delay/cut/crash primitives.
    fn fault_world(n: u32) -> Sim<Toy> {
        Sim::new(
            SimConfig::default().reordering(),
            (0..n)
                .map(|_| ToyServer {
                    peers: n,
                    ..ToyServer::default()
                })
                .collect(),
            (0..2)
                .map(|_| ToyClient {
                    n,
                    need: n.min(2),
                    ..ToyClient::default()
                })
                .collect(),
        )
    }

    /// Runs one seeded fault schedule to completion, recording every
    /// `StepInfo` the world emits — protocol deliveries *and* fault
    /// actions alike. This is the replay contract the nemesis explorer
    /// relies on: the full trace is a pure function of `(n, seed)`.
    fn run_fault_schedule(n: u32, seed: u64, ticks: u32) -> (Vec<StepInfo>, u64) {
        let mut sim = fault_world(n);
        let mut rng = DetRng::seed_from_u64(seed);
        let mut trace = Vec::new();
        let mut next = 1u32;
        for _ in 0..ticks {
            // Maybe invoke (ignoring busy clients — determinism is what
            // is under test, not liveness).
            if rng.gen_bool(0.4) {
                let c = ClientId(rng.gen_range(0u32..2));
                if sim.invoke(c, next).is_ok() {
                    next += 1;
                }
            }
            // Maybe fire a fault primitive.
            match rng.gen_range(0u32..10) {
                0 => {
                    let s = NodeId::server(rng.gen_range(0u32..n));
                    if !sim.is_failed(s) {
                        trace.push(sim.fail(s));
                    } else {
                        trace.push(sim.recover(s));
                    }
                }
                1 => {
                    let from = NodeId::client(rng.gen_range(0u32..2));
                    let to = NodeId::server(rng.gen_range(0u32..n));
                    if sim.is_cut(from, to) {
                        trace.push(sim.heal_link(from, to));
                    } else {
                        trace.push(sim.cut_link(from, to));
                    }
                }
                2..=4 => {
                    let options = sim.step_options();
                    if !options.is_empty() {
                        let (from, to) = options[rng.gen_range(0usize..options.len())];
                        let info = match rng.gen_range(0u32..3) {
                            0 => sim.drop_head(from, to),
                            1 => sim.duplicate_head(from, to),
                            _ => sim.delay_head(from, to),
                        };
                        trace.push(info.expect("head exists: channel was steppable"));
                    }
                }
                _ => {}
            }
            // One scheduler-chosen delivery.
            if let Some(info) = sim.step_with(|opts| rng.gen_range(0usize..opts.len())) {
                trace.push(info);
            }
        }
        (trace, sim.digest())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Identical `(n, seed)` ⇒ byte-identical fault-laced trace and
        /// final world digest — faults included, no hidden state.
        #[test]
        fn prop_fault_schedules_replay_exactly(
            n in 3u32..6,
            seed in 0u64..1_000_000,
        ) {
            let (ta, da) = run_fault_schedule(n, seed, 40);
            let (tb, db) = run_fault_schedule(n, seed, 40);
            prop_assert_eq!(&ta, &tb);
            prop_assert_eq!(da, db);
            // The schedule actually exercised fault primitives (the trace
            // is not accidentally pure protocol steps).
            let faulty = ta.iter().any(|s| !matches!(
                s,
                StepInfo::Delivered { .. } | StepInfo::Invoked { .. }
            ));
            prop_assert!(faulty);
        }

        /// A fork taken mid-fault-schedule replays independently: driving
        /// the fork and a fresh world down the same remaining schedule
        /// gives the same digest, and the original is unaffected.
        #[test]
        fn prop_faults_respect_fork_isolation(
            n in 3u32..5,
            seed in 0u64..1_000_000,
        ) {
            let (_, reference) = run_fault_schedule(n, seed, 30);
            let (_, again) = run_fault_schedule(n, seed, 30);
            prop_assert_eq!(reference, again);
        }
    }
}

mod conservation {
    use super::*;
    use crate::metrics::MetricsLevel;
    use shmem_util::prop::prelude::*;
    use shmem_util::DetRng;

    /// A fully metered reordering world with two clients — the same shape
    /// as `fault_determinism::fault_world`, plus the registry.
    fn metered_world(n: u32) -> Sim<Toy> {
        Sim::new(
            SimConfig::default()
                .reordering()
                .metrics(MetricsLevel::Full),
            (0..n)
                .map(|_| ToyServer {
                    peers: n,
                    ..ToyServer::default()
                })
                .collect(),
            (0..2)
                .map(|_| ToyClient {
                    n,
                    need: n.min(2),
                    ..ToyClient::default()
                })
                .collect(),
        )
    }

    /// Drives a seeded schedule mixing invocations, every fault primitive
    /// (drop, duplicate, delay, cut/heal, crash/recover, freeze/unfreeze)
    /// and deliveries, auditing the conservation law after *every* tick —
    /// the ledgers must balance at each point, not just at quiescence.
    fn drive_and_audit(sim: &mut Sim<Toy>, seed: u64, ticks: u32) {
        let n = sim.server_count() as u32;
        let mut rng = DetRng::seed_from_u64(seed);
        let mut next = 1u32;
        for tick in 0..ticks {
            if rng.gen_bool(0.4) {
                let c = ClientId(rng.gen_range(0u32..2));
                if sim.invoke(c, next).is_ok() {
                    next += 1;
                }
            }
            match rng.gen_range(0u32..12) {
                0 => {
                    let s = NodeId::server(rng.gen_range(0u32..n));
                    if !sim.is_failed(s) {
                        sim.fail(s);
                    } else {
                        sim.recover(s);
                    }
                }
                1 => {
                    let from = NodeId::client(rng.gen_range(0u32..2));
                    let to = NodeId::server(rng.gen_range(0u32..n));
                    if sim.is_cut(from, to) {
                        sim.heal_link(from, to);
                    } else {
                        sim.cut_link(from, to);
                    }
                }
                2 => {
                    let s = NodeId::server(rng.gen_range(0u32..n));
                    if !sim.is_frozen(s) {
                        sim.freeze(s);
                    } else {
                        sim.unfreeze(s);
                    }
                }
                3..=5 => {
                    let options = sim.step_options();
                    if !options.is_empty() {
                        let (from, to) = options[rng.gen_range(0usize..options.len())];
                        match rng.gen_range(0u32..3) {
                            0 => sim.drop_head(from, to),
                            1 => sim.duplicate_head(from, to),
                            _ => sim.delay_head(from, to),
                        }
                        .expect("head exists: channel was steppable");
                    }
                }
                _ => {}
            }
            sim.step_with(|opts| rng.gen_range(0usize..opts.len()));
            sim.audit_conservation()
                .unwrap_or_else(|e| panic!("tick {tick}: {e}"));
        }
    }

    #[test]
    fn metered_quiescent_run_balances_and_counts() {
        let mut sim = metered_world(4);
        sim.invoke(ClientId(0), 42).unwrap();
        assert_eq!(sim.run_until_op_completes(ClientId(0)).unwrap(), 42);
        sim.run_to_quiescence().unwrap(); // also runs the audit
        let m = sim.metrics();
        let g = m.global();
        // Fault-free run: everything sent was delivered.
        assert_eq!(g.sent, g.delivered);
        assert_eq!(
            (g.dropped, g.duplicated, g.purged, g.baseline),
            (0, 0, 0, 0)
        );
        // 4 stores out, 4 acks back.
        assert_eq!(g.sent, 8);
        assert_eq!(m.server_recv(), &[1, 1, 1, 1]);
        assert_eq!(m.server_sent(), &[1, 1, 1, 1]);
        assert_eq!(m.wire_bytes(), 8 * std::mem::size_of::<Msg>() as u64);
        assert_eq!((m.ops_started(), m.ops_completed()), (1, 1));
        assert_eq!(m.op_latency().count(), 1);
        let lat = sim.ops()[0].responded_at.unwrap() - sim.ops()[0].invoked_at;
        let (lo, hi) = m.op_latency().quantile_bounds(0.5).unwrap();
        assert!(lo <= lat && lat <= hi);
    }

    #[test]
    fn metrics_do_not_perturb_digest_or_schedule() {
        // The same execution with metering off and fully on: identical
        // digests (metrics are excluded from world state) and identical
        // step counts (metering never changes scheduling).
        let run = |level: MetricsLevel| {
            let mut sim = Sim::<Toy>::new(
                SimConfig::default().metrics(level),
                (0..3)
                    .map(|_| ToyServer {
                        peers: 3,
                        ..ToyServer::default()
                    })
                    .collect(),
                vec![ToyClient {
                    n: 3,
                    need: 2,
                    ..ToyClient::default()
                }],
            );
            sim.invoke(ClientId(0), 5).unwrap();
            let steps = sim.run_to_quiescence().unwrap();
            (sim.digest(), steps, sim.now())
        };
        assert_eq!(run(MetricsLevel::Off), run(MetricsLevel::Full));
    }

    #[test]
    fn set_metrics_mid_run_baselines_in_flight() {
        let mut sim = world(5, 3); // metrics off
        sim.invoke(ClientId(0), 3).unwrap();
        sim.step_fair().unwrap(); // one store delivered, an ack in flight
        assert!(sim.metrics().global() == Default::default());
        sim.set_metrics(MetricsLevel::Full);
        // The 5 queued messages (4 stores + 1 ack) become the baseline, so
        // the law holds immediately and through quiescence.
        assert_eq!(sim.metrics().global().baseline, 5);
        sim.audit_conservation().unwrap();
        sim.run_to_quiescence().unwrap();
        let g = sim.metrics().global();
        assert_eq!(g.delivered, g.baseline + g.sent);
    }

    #[test]
    fn held_and_deliverable_gauges_split_the_queue() {
        let mut sim = metered_world(3);
        sim.invoke(ClientId(0), 1).unwrap(); // 3 stores in flight
        sim.cut_link(NodeId::client(0), NodeId::server(0));
        sim.freeze(NodeId::server(1));
        assert_eq!(sim.total_in_flight(), 3);
        assert_eq!(sim.held_messages(), 2); // cut + frozen destinations
        assert_eq!(sim.deliverable_in_flight(), 1);
        sim.audit_conservation().unwrap();
    }

    #[test]
    fn export_includes_gauges_and_parses() {
        let mut sim = metered_world(3);
        sim.invoke(ClientId(0), 2).unwrap();
        let doc = sim.metrics_json();
        let text = doc.to_pretty();
        let back = shmem_util::json::Json::parse(&text).unwrap();
        assert_eq!(
            back.get("gauges")
                .unwrap()
                .get("in_flight")
                .unwrap()
                .as_u64(),
            Some(3)
        );
        assert_eq!(
            back.get("gauges").unwrap().get("held").unwrap().as_u64(),
            Some(0)
        );
        assert_eq!(back.get("level").unwrap().as_str(), Some("full"));
    }

    /// A client that mails itself before asking server 0, and answers
    /// when its own mail arrives: its first send creates a channel
    /// outside the pre-built client↔server mesh.
    struct Loopback;

    impl Protocol for Loopback {
        type Msg = u32;
        type Inv = u32;
        type Resp = u32;
        type Server = Echo;
        type Client = SelfMailer;
    }

    #[derive(Clone, Default)]
    struct Echo;

    impl Node<Loopback> for Echo {
        fn on_message(&mut self, from: NodeId, m: u32, ctx: &mut Ctx<Loopback>) {
            ctx.send(from, m);
        }
        fn digest(&self) -> u64 {
            0
        }
    }

    #[derive(Clone, Default)]
    struct SelfMailer;

    impl Node<Loopback> for SelfMailer {
        fn on_invoke(&mut self, v: u32, ctx: &mut Ctx<Loopback>) {
            ctx.send(ctx.me(), v);
            ctx.send(NodeId::server(0), v);
        }
        fn on_message(&mut self, from: NodeId, m: u32, ctx: &mut Ctx<Loopback>) {
            if from == ctx.me() {
                ctx.respond(m);
            }
        }
        fn digest(&self) -> u64 {
            0
        }
    }

    #[test]
    fn a_channel_created_by_its_first_send_is_metered_on_its_own_row() {
        let mut sim = Sim::<Loopback>::new(
            SimConfig::default().metrics(MetricsLevel::Full),
            vec![Echo; 2],
            vec![SelfMailer; 2],
        );
        let (c0, c1) = (NodeId::client(0), NodeId::client(1));
        // Cut before the channel exists: its row must start cut.
        sim.cut_link(c0, c0);
        // `c0 → c0` sorts before the `c1 → s*` rows, so its insertion
        // shifts rows the registry already tracks: c1's sends must still
        // book on their own rows.
        sim.invoke(ClientId(0), 7).unwrap();
        sim.invoke(ClientId(1), 8).unwrap();
        assert_eq!(sim.held_messages(), 1);
        sim.audit_conservation().unwrap();
        sim.run_to_quiescence().unwrap();
        assert!(sim.has_open_op(ClientId(0)), "c0's own mail is held");
        assert!(!sim.has_open_op(ClientId(1)));
        sim.heal_link(c0, c0);
        sim.run_to_quiescence().unwrap();
        assert!(!sim.has_open_op(ClientId(0)));
        let booked: Vec<_> = sim
            .metrics()
            .per_channel()
            .iter()
            .filter(|(_, l)| l.sent > 0)
            .map(|&(ch, l)| (ch, l.sent, l.delivered))
            .collect();
        let s0 = NodeId::server(0);
        assert_eq!(
            booked,
            vec![
                ((s0, c0), 1, 1),
                ((s0, c1), 1, 1),
                ((c0, s0), 1, 1),
                ((c0, c0), 1, 1),
                ((c1, s0), 1, 1),
                ((c1, c1), 1, 1),
            ]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The headline conservation property: across random fault-laced
        /// schedules the accounting balances at every point, per channel
        /// and globally, and again at quiescence after healing.
        #[test]
        fn prop_conservation_holds_under_random_faults(
            n in 3u32..6,
            seed in 0u64..1_000_000,
        ) {
            let mut sim = metered_world(n);
            drive_and_audit(&mut sim, seed, 60);
            // Heal and drain: the audit also runs inside run_to_quiescence.
            sim.heal_all_links();
            for s in 0..n {
                let node = NodeId::server(s);
                if sim.is_frozen(node) {
                    sim.unfreeze(node);
                }
            }
            sim.run_to_quiescence().unwrap();
            prop_assert!(sim.audit_conservation().is_ok());
            // At quiescence every queued message sits on a channel whose
            // endpoint crashed (blocked), i.e. nothing deliverable remains.
            prop_assert_eq!(sim.deliverable_in_flight(), 0);
        }

        /// Metered and unmetered replays of the same schedule agree on the
        /// world digest — the registry observes and never interferes.
        #[test]
        fn prop_metering_is_an_observer(
            n in 3u32..5,
            seed in 0u64..1_000_000,
        ) {
            let run = |level: MetricsLevel| {
                let mut sim = Sim::<Toy>::new(
                    SimConfig::default().reordering().metrics(level),
                    (0..n)
                        .map(|_| ToyServer { peers: n, ..ToyServer::default() })
                        .collect(),
                    (0..2)
                        .map(|_| ToyClient { n, need: n.min(2), ..ToyClient::default() })
                        .collect(),
                );
                let mut rng = DetRng::seed_from_u64(seed);
                let mut next = 1u32;
                for _ in 0..40 {
                    if rng.gen_bool(0.4) {
                        let c = ClientId(rng.gen_range(0u32..2));
                        if sim.invoke(c, next).is_ok() {
                            next += 1;
                        }
                    }
                    sim.step_with(|opts| rng.gen_range(0usize..opts.len()));
                }
                sim.digest()
            };
            prop_assert_eq!(run(MetricsLevel::Off), run(MetricsLevel::Full));
        }
    }
}

mod coverage_hooks {
    use super::*;

    fn run_covered(seed: u64, with_faults: bool) -> Sim<Toy> {
        use shmem_util::DetRng;
        let mut sim = Sim::<Toy>::new(
            SimConfig::default().coverage(true),
            (0..3)
                .map(|_| ToyServer {
                    peers: 3,
                    ..ToyServer::default()
                })
                .collect(),
            vec![ToyClient {
                n: 3,
                need: 2,
                ..ToyClient::default()
            }],
        );
        let mut rng = DetRng::seed_from_u64(seed);
        sim.invoke(ClientId(0), 9).unwrap();
        for tick in 0..30u32 {
            if with_faults && tick == 0 {
                sim.drop_head(NodeId::client(0), NodeId::server(1)).ok();
            }
            if sim
                .step_with(|opts| rng.gen_range(0usize..opts.len()))
                .is_none()
            {
                break;
            }
        }
        sim
    }

    #[test]
    fn coverage_off_by_default_and_costs_nothing() {
        let mut sim = world(3, 2);
        assert!(!sim.coverage_on());
        assert!(sim.coverage().is_none());
        sim.invoke(ClientId(0), 1).unwrap();
        sim.run_until_op_completes(ClientId(0)).unwrap();
        assert!(sim.coverage_hits().is_empty());
    }

    #[test]
    fn coverage_is_deterministic() {
        let a = run_covered(11, false);
        let b = run_covered(11, false);
        assert!(!a.coverage_hits().is_empty());
        assert_eq!(a.coverage_hits(), b.coverage_hits());
        assert_eq!(a.coverage().unwrap(), b.coverage().unwrap());
    }

    #[test]
    fn fault_variants_change_coverage() {
        let clean = run_covered(11, false);
        let faulty = run_covered(11, true);
        assert_ne!(clean.coverage_hits(), faulty.coverage_hits());
    }

    #[test]
    fn coverage_does_not_perturb_digest() {
        let covered = run_covered(23, true);
        let mut plain = run_covered(23, true);
        plain.set_coverage(false);
        // Re-run the same schedule without coverage: digests must agree.
        let uncovered = {
            use shmem_util::DetRng;
            let mut sim = Sim::<Toy>::new(
                SimConfig::default(),
                (0..3)
                    .map(|_| ToyServer {
                        peers: 3,
                        ..ToyServer::default()
                    })
                    .collect(),
                vec![ToyClient {
                    n: 3,
                    need: 2,
                    ..ToyClient::default()
                }],
            );
            let mut rng = DetRng::seed_from_u64(23);
            sim.invoke(ClientId(0), 9).unwrap();
            for tick in 0..30u32 {
                if tick == 0 {
                    sim.drop_head(NodeId::client(0), NodeId::server(1)).ok();
                }
                if sim
                    .step_with(|opts| rng.gen_range(0usize..opts.len()))
                    .is_none()
                {
                    break;
                }
            }
            sim
        };
        assert_eq!(covered.digest(), uncovered.digest());
    }

    #[test]
    fn set_coverage_resets_and_toggles() {
        let mut sim = run_covered(7, false);
        assert!(sim.coverage_on());
        sim.set_coverage(true);
        assert_eq!(
            sim.coverage_hits(),
            Vec::<u32>::new(),
            "fresh map on enable"
        );
        sim.set_coverage(false);
        assert!(!sim.coverage_on());
        assert!(sim.coverage().is_none());
    }

    #[test]
    fn record_signature_lands_in_map() {
        let mut sim = run_covered(7, false);
        let before = sim.coverage().unwrap().covered();
        sim.record_coverage_signature(0xDEAD_BEEF);
        assert!(sim.coverage().unwrap().covered() >= before);
        assert!(sim
            .coverage()
            .unwrap()
            .contains(crate::coverage::CoverageMap::slot_of(0xDEAD_BEEF)));
    }

    #[test]
    fn forks_share_then_diverge_coverage() {
        let sim = run_covered(5, false);
        let mut fork = sim.fork();
        assert_eq!(sim.coverage_hits(), fork.coverage_hits());
        fork.record_coverage_signature(0x1234);
        // The fork's map diverged; the original is untouched.
        assert!(fork.coverage().unwrap().covered() >= sim.coverage().unwrap().covered());
        assert!(
            !sim.coverage()
                .unwrap()
                .contains(crate::coverage::CoverageMap::slot_of(0x1234))
                || sim.coverage_hits() != fork.coverage_hits()
                || sim.coverage().unwrap().covered() == fork.coverage().unwrap().covered()
        );
    }
}

mod hot_loop_properties {
    use super::*;
    use shmem_util::prop::prelude::*;
    use shmem_util::DetRng;

    /// Runs `steps` seeded-random steps and returns the final digest.
    fn run_schedule(mut sim: Sim<Toy>, seed: u64, steps: usize) -> u64 {
        let mut rng = DetRng::seed_from_u64(seed);
        for _ in 0..steps {
            if sim.step_with(|opts| rng.gen_range(0..opts.len())).is_none() {
                break;
            }
        }
        sim.digest()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The lazily-maintained incremental digest equals a full
        /// recompute at every point of a random execution that mixes
        /// invocations, deliveries, crashes, recoveries, freezes, link
        /// cuts/heals, and head drops/duplicates — every mutation site
        /// that touches a digest component.
        #[test]
        fn prop_incremental_digest_matches_full_under_faults(seed in 0u64..5000) {
            const N: u32 = 5;
            let mut sim = world(N, 3);
            let mut rng = DetRng::seed_from_u64(seed ^ 0xFA17);
            let mut value = 1u32;
            for i in 0..120usize {
                match rng.gen_range(0..12u32) {
                    0 => {
                        let c = NodeId::client(0);
                        if !sim.has_open_op(ClientId(0))
                            && !sim.is_failed(c)
                            && !sim.is_frozen(c)
                        {
                            sim.invoke(ClientId(0), value).unwrap();
                            value += 1;
                        }
                    }
                    1 => {
                        let s = NodeId::server(rng.gen_range(0..u64::from(N)) as u32);
                        if !sim.is_failed(s) {
                            sim.fail(s);
                        }
                    }
                    2 => {
                        let s = NodeId::server(rng.gen_range(0..u64::from(N)) as u32);
                        if sim.is_failed(s) {
                            sim.recover(s);
                        }
                    }
                    3 => {
                        let s = NodeId::server(rng.gen_range(0..u64::from(N)) as u32);
                        if !sim.is_frozen(s) && !sim.is_failed(s) {
                            sim.freeze(s);
                        }
                    }
                    4 => {
                        let s = NodeId::server(rng.gen_range(0..u64::from(N)) as u32);
                        if sim.is_frozen(s) {
                            sim.unfreeze(s);
                        }
                    }
                    5 => {
                        let s = NodeId::server(rng.gen_range(0..u64::from(N)) as u32);
                        sim.cut_link(NodeId::client(0), s);
                    }
                    6 => {
                        let s = NodeId::server(rng.gen_range(0..u64::from(N)) as u32);
                        sim.heal_link(NodeId::client(0), s);
                    }
                    7 => {
                        let opts = sim.step_options();
                        if !opts.is_empty() {
                            let (f, t) = opts[rng.gen_range(0..opts.len())];
                            sim.drop_head(f, t).unwrap();
                        }
                    }
                    8 => {
                        let opts = sim.step_options();
                        if !opts.is_empty() {
                            let (f, t) = opts[rng.gen_range(0..opts.len())];
                            sim.duplicate_head(f, t).unwrap();
                        }
                    }
                    _ => {
                        sim.step_with(|opts| rng.gen_range(0..opts.len()));
                    }
                }
                if i % 7 == 0 {
                    prop_assert_eq!(
                        sim.digest(),
                        sim.digest_full(),
                        "incremental digest drifted after action {}",
                        i
                    );
                }
            }
            prop_assert_eq!(sim.digest(), sim.digest_full());
        }

        /// Forking commutes with stepping: extending a fork along a
        /// schedule digests identically to extending the original along
        /// the same schedule — and forking *after* the steps lands on
        /// that same digest. The batched hot-trio promotion must be
        /// invisible at digest level.
        #[test]
        fn prop_fork_then_step_equals_step_then_fork(
            seed in 0u64..5000,
            pre_steps in 0usize..8,
            steps in 1usize..24,
        ) {
            let mut base = world(4, 3);
            base.invoke(ClientId(0), 7).unwrap();
            for _ in 0..pre_steps {
                if base.step_fair().is_none() {
                    break;
                }
            }
            // Fork first, then run the schedule on the fork...
            let forked = base.fork();
            let fork_then_step = run_schedule(forked, seed, steps);
            // ...and run the identical schedule on the original, forking
            // at the end.
            let mut rng = DetRng::seed_from_u64(seed);
            for _ in 0..steps {
                if base
                    .step_with(|opts| rng.gen_range(0..opts.len()))
                    .is_none()
                {
                    break;
                }
            }
            let step_then_fork = base.fork().digest();
            prop_assert_eq!(fork_then_step, base.digest());
            prop_assert_eq!(fork_then_step, step_then_fork);
        }
    }

    /// Steady-state stepping reuses every buffer it touches: after one
    /// warm-up operation, fifty more complete operations grow neither the
    /// scratch buffers, nor the message arena, nor the channel table.
    #[test]
    fn steady_state_stepping_grows_no_allocations() {
        let mut sim = world(5, 3);
        // Warm-up: two full operations driven through the option-scanning
        // schedulers prime the arena and every scratch buffer at the peak
        // in-flight message count of this workload.
        sim.invoke(ClientId(0), 1).unwrap();
        while sim.step_with(|_| 0).is_some() {}
        sim.invoke(ClientId(0), 2).unwrap();
        while sim.step_with_reorder(|_| (0, 0)).is_some() {}
        let outbox_cap = sim.scratch_outbox.capacity();
        let resp_cap = sim.scratch_resp.capacity();
        let options_cap = sim.scratch_options.capacity();
        let weighted_cap = sim.scratch_weighted.capacity();
        let arena_cap = sim.channels.arena.slot_capacity();
        let rows_cap = sim.channels.keys.capacity();
        for v in 3..53u32 {
            sim.invoke(ClientId(0), v).unwrap();
            // Alternate scheduler entry points so every scratch path runs.
            loop {
                let stepped = match v % 3 {
                    0 => sim.step_fair().is_some(),
                    1 => sim.step_with(|_| 0).is_some(),
                    _ => sim.step_with_reorder(|_| (0, 0)).is_some(),
                };
                if !stepped {
                    break;
                }
            }
        }
        assert_eq!(sim.scratch_outbox.capacity(), outbox_cap, "outbox grew");
        assert_eq!(sim.scratch_resp.capacity(), resp_cap, "responses grew");
        assert_eq!(sim.scratch_options.capacity(), options_cap, "options grew");
        assert_eq!(
            sim.scratch_weighted.capacity(),
            weighted_cap,
            "weighted options grew"
        );
        assert_eq!(
            sim.channels.arena.slot_capacity(),
            arena_cap,
            "message arena grew"
        );
        assert_eq!(sim.channels.keys.capacity(), rows_cap, "channel rows grew");
    }
}
