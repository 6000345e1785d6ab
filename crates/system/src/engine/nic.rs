//! NIC lanes and point-to-point messages on the co-resident async
//! backend.
//!
//! Every message a block sends, a resolved send/recv pair or one chunk op
//! of a backend-executed collective, waits on the block's NIC lane, which
//! carries one message at a time, and enters the backend when the lane
//! frees. The backend's completions resume whatever waited on them.

use std::collections::VecDeque;

use astra_des::{DataSize, Time};
use astra_network::{Completion, NetworkBackend};
use astra_topology::NpuId;

use super::lowered::ChunkSend;
use super::{Engine, EngineEvent, SimError, COMM};
use crate::setup::build_backend;

/// The send and the receive side of one p2p pair: each one's node and the
/// instant it issued, once it has.
pub(super) type P2pSides = [Option<(u32, Time)>; 2];

/// A resolved p2p send/recv pair: the message, and the graph nodes its
/// completion resumes.
pub(super) struct PeerMessage {
    src: NpuId,
    dst: NpuId,
    size: DataSize,
    send_node: u32,
    recv_node: u32,
    send_ready: Time,
    recv_ready: Time,
}

/// A message in [`Engine::in_flight`], keyed by the token it is sent
/// under: a peer message from its resolution, a chunk op from its
/// injection, each until its completion.
pub(super) enum Message {
    Peer(PeerMessage),
    Chunk(ChunkSend),
}

/// An entry of a NIC queue. Both kinds share the lane (and therefore
/// serialize against each other), which is exactly how collective and
/// p2p traffic from one NPU contend.
#[derive(Copy, Clone)]
pub(super) enum Outbound {
    /// A resolved peer message, by its key in [`Engine::in_flight`].
    Peer(u32),
    /// Chunk op `op` of running collective `coll`, ready at `ready` (see
    /// [`ChunkSend`]), and the root ops of the next `more` chunks queued
    /// behind it as one entry: ops `op + k × phases` for `k` in
    /// `1..=more`.
    Chunk {
        coll: u32,
        op: u64,
        ready: Time,
        more: u64,
    },
}

/// One block's NIC lane: whether an injected message's completion is
/// still undiscovered, when the lane is known to free, and the messages
/// queued behind it. Invariant: an `InjectP2p` event is pending iff the
/// queue is non-empty and the lane is not occupied.
#[derive(Default)]
pub(super) struct Nic {
    occupied: bool,
    free: Time,
    pub(super) queue: VecDeque<Outbound>,
}

impl<'a> Engine<'a> {
    /// The shared async backend, built on first use. A traced run turns
    /// the backend's link-grant recording on at construction, before any
    /// message reaches it.
    fn network_mut(&mut self) -> &mut dyn NetworkBackend {
        let first = self.network.is_none();
        let record = self.sink.is_some();
        let (topo, config, warm, transport) = (self.topo, self.config, self.warm, self.transport);
        let fabric = &mut self.fabric;
        let net = self
            .network
            .get_or_insert_with(|| build_backend(topo, config, warm, transport, fabric.take()));
        if first && record {
            net.set_telemetry(true);
        }
        net.as_mut()
    }

    /// One shared clock: before the engine pops its next event, gives the
    /// backend every internal event up to (and including, so completions
    /// win FIFO ties) that instant. Messages sent later always carry later
    /// timestamps, so the backend never has to run ahead of the engine
    /// frontier. Only a completion can change the engine's state, so the
    /// backend may run on to its next one in a single call; under a budget
    /// it runs one instant per call, so the budget trips at the same
    /// instant.
    pub(super) fn advance_network(&mut self) -> Result<(), SimError> {
        while self.on_wire > 0 {
            let Some(net) = self.network.as_mut() else {
                return Err(SimError::Internal("in-flight p2p without a backend"));
            };
            let mut limit = self.queue.peek_time().unwrap_or(Time::MAX);
            if self.config.max_events.is_some() || self.config.max_sim_time.is_some() {
                let Some(t) = net.next_event_time() else {
                    break;
                };
                limit = limit.min(t);
            }
            let Some(t) = net.advance_to_completion(limit) else {
                break;
            };
            self.drain_network()?;
            self.check_budget(t)?;
        }
        Ok(())
    }

    /// One side of the p2p pair `(src, dst, tag)` issues: `node`, a send
    /// when `send`, at `now`. Once both sides have, the pair resolves
    /// into a message of `size`.
    pub(super) fn post_p2p(
        &mut self,
        (src, dst, tag): (NpuId, NpuId, u64),
        send: bool,
        node: u32,
        size: DataSize,
        now: Time,
    ) -> Result<(), SimError> {
        let sides = self.p2p_pending.entry((src, dst, tag)).or_default();
        sides[usize::from(!send)] = Some((node, now));
        let [Some((send_node, send_ready)), Some((recv_node, recv_ready))] = *sides else {
            return Ok(());
        };
        self.p2p_pending.remove(&(src, dst, tag));
        self.p2p_messages += 1;
        // Non-blocking NetworkAPI: schedule the send on the shared
        // backend and keep executing ready graph nodes; the paired nodes
        // resume from the completion callback. Same-source messages
        // serialize on the NIC lane, so a run against the blocking-p2p
        // oracle's probe backend only diverges on *cross-source* overlap —
        // genuine network contention.
        let key = self.in_flight.insert(Message::Peer(PeerMessage {
            src,
            dst,
            size,
            send_node,
            recv_node,
            send_ready,
            recv_ready,
        }));
        self.enqueue_outbound(src, Outbound::Peer(key), send_ready.max(recv_ready))
    }

    /// Hands a resolved message, ready at `ready`, to `src`'s NIC lane:
    /// inject now if the lane is idle and the message is ready, otherwise
    /// queue behind it (the lane's completion or the pending `InjectP2p`
    /// event drains the queue in FIFO order).
    ///
    /// Injection never runs ahead of the engine clock: a message whose
    /// ready time (or lane-free time) lies in the simulated future —
    /// closed-form backends resolve completions, and therefore chunk-op
    /// dependencies, at send time — waits for an `InjectP2p` event at that
    /// instant. Handing the backend a future send would violate the
    /// shared-clock invariant (the fluid backend would advance its clock
    /// past other arrivals still queued in the engine).
    pub(super) fn enqueue_outbound(
        &mut self,
        src: NpuId,
        msg: Outbound,
        ready: Time,
    ) -> Result<(), SimError> {
        let nic = &mut self.blocks[src].nic;
        // A busy lane or a non-empty queue means an InjectP2p follow-up is
        // (or will be) scheduled by the occupying message's completion.
        let idle = !nic.occupied && nic.queue.is_empty();
        nic.queue.push_back(msg);
        if !idle {
            return Ok(());
        }
        let at = ready.max(nic.free);
        if at > self.queue.now() {
            self.queue.schedule_at(at, EngineEvent::InjectP2p(src));
            Ok(())
        } else {
            self.inject_next(src, at)
        }
    }

    /// Injects the next message off `src`'s NIC queue at `at`.
    pub(super) fn inject_next(&mut self, src: NpuId, at: Time) -> Result<(), SimError> {
        let Some(msg) = self.blocks[src].nic.queue.pop_front() else {
            return Err(SimError::Internal(
                "InjectP2p event fired with an empty NIC queue",
            ));
        };
        let (token, dst, size) = match msg {
            Outbound::Peer(key) => {
                let Some(Message::Peer(m)) = self.in_flight.get(key) else {
                    return Err(SimError::Internal("a queued peer message is not in flight"));
                };
                debug_assert!(
                    at >= m.send_ready.max(m.recv_ready),
                    "message injected before it is ready"
                );
                (key, m.dst, m.size)
            }
            Outbound::Chunk {
                coll,
                op,
                ready,
                more,
            } => self.send_chunk_op(src, ChunkSend { coll, op, ready }, more, at)?,
        };
        self.blocks[src].nic.occupied = true;
        self.on_wire += 1;
        let net = self.network_mut();
        // A chunk op's lane can free before its predecessor's last-hop
        // propagation completed; the store-and-forward backend cannot
        // re-open that history, so the send clamps to its clock floor.
        let at = at.max(net.earliest_send_time());
        net.send_async(token, at, src, dst, size);
        Ok(())
    }

    /// Collects completion callbacks from the async backend and applies
    /// them. One pass suffices: completion processing only *schedules
    /// engine events* (Node, InjectP2p, ChunkReady) and never injects a
    /// new send synchronously, so no new completions can appear until the
    /// main loop pops one of those events — which keeps the engine queue
    /// non-empty whenever work remains, and calls back here after every
    /// pop.
    pub(super) fn drain_network(&mut self) -> Result<(), SimError> {
        let Some(net) = self.network.as_mut() else {
            return Ok(());
        };
        let mut batch = std::mem::take(&mut self.completions);
        net.drain_completions(&mut batch);
        for c in batch.drain(..) {
            self.finish_p2p(c)?;
        }
        self.completions = batch;
        Ok(())
    }

    /// Resumes whatever waited on a completed async message: the paired
    /// send/recv graph nodes for p2p traffic, the dependent chunk ops (and
    /// eventually the meeting) for a backend-executed collective.
    fn finish_p2p(&mut self, c: Completion) -> Result<(), SimError> {
        let Some(msg) = self.in_flight.remove(c.token) else {
            return Err(SimError::Internal(
                "completion does not match an in-flight message",
            ));
        };
        self.on_wire -= 1;
        match msg {
            Message::Peer(msg) => {
                self.blocks[msg.src].logs[COMM].push(msg.send_ready, c.finish);
                if c.finish > msg.recv_ready {
                    self.blocks[msg.dst].logs[COMM].push(msg.recv_ready, c.finish);
                }
                for (block, node) in [(msg.src, msg.send_node), (msg.dst, msg.recv_node)] {
                    let node = EngineEvent::Node {
                        block,
                        node,
                        origin: 0,
                    };
                    self.queue.schedule_at(c.finish, node);
                }
                self.release_nic(msg.src, c.finish);
                Ok(())
            }
            Message::Chunk(op) => self.finish_chunk_op(op, c.finish),
        }
    }

    /// Frees a source NIC lane at `free` (which can lie in the simulated
    /// future for closed-form backends, or — for chunk ops, whose lane
    /// releases `wire_latency` early — slightly in the simulated past):
    /// the next queued same-source message injects when the engine clock
    /// gets there.
    pub(super) fn release_nic(&mut self, src: NpuId, free: Time) {
        let nic = &mut self.blocks[src].nic;
        nic.occupied = false;
        nic.free = free;
        if !nic.queue.is_empty() {
            self.queue
                .schedule_at(free.max(self.queue.now()), EngineEvent::InjectP2p(src));
        }
    }
}
