//! Backend-executed collectives ([`CollectiveMode::Backend`]): a full
//! meeting lowers its collective to a chunk-level send/recv program and
//! runs it on the co-resident network backend, where its chunk ops
//! contend with p2p messages and other collectives on the NIC lanes and
//! links.
//!
//! [`CollectiveMode::Backend`]: astra_collectives::CollectiveMode::Backend

use std::sync::Arc;

use astra_collectives::{lowering, Collective, CollectiveProgram};
use astra_des::{DataSize, Time};
use astra_telemetry::{ChunkOpSpan, DepEdge};
use astra_topology::NpuId;

use super::nic::{Message, Outbound};
use super::{Engine, EngineEvent, Meeting, SimError};

const NOT_RUNNING: SimError =
    SimError::Internal("a chunk op does not belong to a running collective");

/// A backend-executed collective in flight: the lowered program, the ops
/// still to complete and the meeting it resumes on finish. Its size does
/// not depend on the chunk count.
pub(super) struct RunningCollective {
    /// The meeting it resumes. Its group block's span binds each local
    /// dimension to its `(src, dst)` wire endpoints.
    meeting: Meeting,
    program: Arc<CollectiveProgram>,
    remaining_ops: u64,
    /// Running maximum of op completions (incl. extra step latency).
    finish: Time,
}

/// One chunk-level op of a backend-executed collective on the wire. Its
/// wire endpoints and size are read from its program.
pub(super) struct ChunkSend {
    /// The running collective's key in [`Engine::running_collectives`].
    pub(super) coll: u32,
    /// Op id within the instance's program.
    pub(super) op: u64,
    /// When the op's predecessor (including its extra step latency)
    /// completed — the earliest instant it may enter the wire.
    pub(super) ready: Time,
}

impl Engine<'_> {
    /// Lowers a collective to its chunk-level program and starts executing
    /// it on the co-resident network backend: the root ops (every chunk's
    /// first phase) enter their source's NIC lane at the meeting's
    /// rendezvous instant as one counted run; every later op issues when
    /// its predecessor completes.
    pub(super) fn launch_backend_collective(
        &mut self,
        meeting: Meeting,
        collective: Collective,
        size: DataSize,
    ) -> Result<(), SimError> {
        let (group, start) = (meeting.group, meeting.start);
        let program = match self.program_memo.get(&(group, collective, size)) {
            Some(program) => {
                self.lowering_hits += 1;
                Arc::clone(program)
            }
            None => {
                self.lowering_misses += 1;
                let dims = self.spans.span(group as usize).dims;
                let chunks = self.config.collective_chunks;
                let program = Arc::new(lowering::lower(collective, size, dims, chunks));
                self.program_memo
                    .insert((group, collective, size), Arc::clone(&program));
                program
            }
        };
        let chunks = program.chunks();
        let coll = self.running_collectives.insert(RunningCollective {
            meeting,
            remaining_ops: program.len(),
            program,
            finish: start,
        });
        // The meeting completes at the engine's current instant, so the
        // root ops (op 0 and every later chunk's first phase) are ready
        // right now.
        self.enqueue_chunk_op(coll, 0, start, chunks - 1)
    }

    /// Hands a ready chunk op, plus the `more` root ops of the next chunks
    /// when `op` is a root, to its source's NIC lane as one entry.
    pub(super) fn enqueue_chunk_op(
        &mut self,
        coll: u32,
        op: u64,
        ready: Time,
        more: u64,
    ) -> Result<(), SimError> {
        let rc = self.running_collectives.get(coll).ok_or(NOT_RUNNING)?;
        let (src, _) = self
            .spans
            .wire(rc.meeting.group as usize, rc.program.op(op).dim);
        self.chunk_ops += 1 + more;
        let entry = Outbound::Chunk {
            coll,
            op,
            ready,
            more,
        };
        self.enqueue_outbound(src, entry, ready)
    }

    /// Puts chunk op `op`, taken off `src`'s NIC queue to be injected at
    /// `at`, in flight: returns the token it is sent under, its
    /// destination and its size. The `more` root ops that were queued
    /// behind it as one entry go back to the queue head, so each root
    /// holds the FIFO slot it would hold as its own entry.
    pub(super) fn send_chunk_op(
        &mut self,
        src: NpuId,
        op: ChunkSend,
        more: u64,
        at: Time,
    ) -> Result<(u32, NpuId, DataSize), SimError> {
        debug_assert!(at >= op.ready, "chunk op injected before it is ready");
        let rc = self.running_collectives.get(op.coll).ok_or(NOT_RUNNING)?;
        if more > 0 {
            let rest = Outbound::Chunk {
                coll: op.coll,
                op: op.op + rc.program.phases().len() as u64,
                ready: op.ready,
                more: more - 1,
            };
            self.blocks[src].nic.queue.push_front(rest);
        }
        let meta = rc.program.op(op.op);
        let (_, dst) = self.spans.wire(rc.meeting.group as usize, meta.dim);
        Ok((self.in_flight.insert(Message::Chunk(op)), dst, meta.size))
    }

    /// Applies a completed chunk op: releases the lane `wire_latency`
    /// before the wire completion (propagation does not occupy the
    /// dimension, exactly as in the closed-form engine), readies the next
    /// phase of the same chunk `extra_latency` after it, and — once the
    /// program drains — resumes the meeting's graph nodes at the
    /// collective's finish.
    pub(super) fn finish_chunk_op(
        &mut self,
        chunk: ChunkSend,
        wire_finish: Time,
    ) -> Result<(), SimError> {
        let rc = self
            .running_collectives
            .get_mut(chunk.coll)
            .ok_or(NOT_RUNNING)?;
        let meta = rc.program.op(chunk.op);
        let (src, dst) = self.spans.wire(rc.meeting.group as usize, meta.dim);
        let lane_free = wire_finish.saturating_sub(meta.wire_latency);
        let done = wire_finish + meta.extra_latency;
        rc.finish = rc.finish.max(done);
        rc.remaining_ops -= 1;
        let finished = rc.remaining_ops == 0;
        let coll = chunk.coll;
        let trace_id = rc.meeting.id;
        let next = rc.program.next(chunk.op);
        if let Some(sink) = &mut self.sink {
            sink.chunk_ops.push(ChunkOpSpan {
                coll: trace_id,
                op: chunk.op,
                src,
                dst,
                size: meta.size,
                ready: chunk.ready,
                finish: done,
            });
        }
        // The next phase becomes ready `extra_latency` after the wire
        // finish — via a ChunkReady event, never by direct enqueue:
        // closed-form backends report `done` far ahead of the engine
        // clock, and an op queued before its ready instant could block its
        // lane's FIFO head while later-queued ops are already ready.
        if let Some(op) = next {
            self.queue
                .schedule_at(done, EngineEvent::ChunkReady { coll, op });
            if let Some(sink) = &mut self.sink {
                sink.dep_edges.push(DepEdge {
                    coll: trace_id,
                    from: chunk.op,
                    to: op,
                    at: done,
                });
            }
        }
        self.release_nic(src, lane_free);
        if finished {
            let rc = self.running_collectives.remove(coll).ok_or(NOT_RUNNING)?;
            self.resume(rc.meeting, rc.finish);
        }
        Ok(())
    }
}
