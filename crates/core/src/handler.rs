//! The runtime's progress callbacks: what happens to extracted packets and
//! completion events.

use std::cell::Cell;
use std::time::Instant;

use fairmpi_fabric::{Completion, CompletionKind, Envelope, Packet, PacketKind, Rank};
use fairmpi_matching::MatchEvent;
use fairmpi_progress::ProgressHandler;
use fairmpi_spc::Counter;
use fairmpi_trace as trace;

use crate::design::ErrorHandler;
use crate::error::MpiError;
use crate::proc::ProcState;
use crate::reliability::PendingFrame;
use crate::request::Message;
use crate::rma::WindowId;

thread_local! {
    /// Reused by every packet this thread hands to a matcher, so a
    /// delivery allocates nothing once the buffer has grown.
    static MATCH_EVENTS: Cell<Vec<MatchEvent>> = const { Cell::new(Vec::new()) };
}

impl ProcState {
    /// Inject a packet on an instance chosen by the configured assignment.
    /// Does *not* take the big lock: callers on the progress path already
    /// hold it, callers on the API path take it around the whole call.
    ///
    /// Without a fault plan this is the whole story: inject and post the
    /// local `SendDone`. With one, the packet is first registered with the
    /// reliability layer (assigning its transport sequence number) and its
    /// completion is deferred to the receiver's ack; injection may also be
    /// transiently refused (the CQ-full analog), in which case the frame
    /// just waits for the retransmit tick to carry it.
    pub(crate) fn send_packet(&self, mut packet: Packet, token: u64) {
        let Some(rel) = &self.reliability else {
            let k = self.pool.instance_id(self.design.assignment);
            let guard = self.pool.instance(k).lock(&self.spc);
            guard.send(&self.fabric, packet, token, &self.spc);
            return;
        };
        rel.register(&mut packet, token);
        if self.fabric.chaos().is_some_and(|c| c.decide_refusal()) {
            self.spc.inc(Counter::ChaosRefusals);
            trace::instant("chaos.refusal");
            rel.expire_now(packet.envelope.dst, packet.tseq);
            return;
        }
        if let Err(err) = self.inject_frame(&packet, true) {
            if let Some(frame) = rel.retire(packet.envelope.dst, packet.tseq) {
                self.fail_frame(&frame, err);
            }
        }
    }

    /// Put one reliability frame on the wire via a *living* instance.
    /// `Err(InstanceFailed)` means every instance of this rank is dead.
    fn inject_frame(&self, packet: &Packet, first_attempt: bool) -> crate::error::Result<()> {
        let k = self
            .pool
            .alive_instance_id(self.design.assignment)
            .ok_or(MpiError::InstanceFailed)?;
        let guard = self.pool.instance(k).lock(&self.spc);
        guard.send_frame(&self.fabric, packet.clone(), first_attempt, &self.spc);
        Ok(())
    }

    /// One pass of the retransmit machinery: re-inject every frame past its
    /// deadline, fail every frame past its retry budget. Returns the number
    /// of user-visible completions produced (failed requests count — the
    /// caller's wait unblocks).
    pub(crate) fn reliability_tick(&self) -> usize {
        let Some(rel) = &self.reliability else {
            return 0;
        };
        let work = rel.tick(Instant::now());
        if work.backoff_ns > 0 {
            self.spc.add(Counter::RetryBackoffNanos, work.backoff_ns);
        }
        let mut count = 0;
        for packet in work.retransmit {
            self.spc.inc(Counter::Retransmits);
            trace::instant("reliability.retransmit");
            let _big = self.maybe_big_lock();
            if let Err(err) = self.inject_frame(&packet, false) {
                if let Some(frame) = rel.retire(packet.envelope.dst, packet.tseq) {
                    self.fail_frame(&frame, err);
                    count += 1;
                }
            }
        }
        for frame in work.exhausted {
            self.fail_frame(
                &frame,
                MpiError::RetryExhausted {
                    attempts: frame.attempts,
                },
            );
            count += 1;
        }
        count
    }

    /// Surface a permanently undeliverable frame through the error-handler
    /// machinery: fail the user request it carried (`MPI_ERRORS_RETURN`) or
    /// abort the rank (`MPI_ERRORS_ARE_FATAL`).
    fn fail_frame(&self, frame: &PendingFrame, err: MpiError) {
        if self.design.error_handler == ErrorHandler::ErrorsAreFatal {
            panic!("fatal MPI error on rank {}: {err}", self.rank);
        }
        // Control frames carry their request token inside the kind, not in
        // the completion-queue slot: an RTS that dies must fail the *send*,
        // a CTS that dies must fail the *receive* that granted it.
        let token = match frame.packet.kind {
            PacketKind::RendezvousRts { sender_token, .. } => sender_token,
            PacketKind::RendezvousCts { receiver_token, .. } => receiver_token,
            _ => frame.cq_token,
        };
        if token != 0 {
            self.requests.fail(token, err);
        }
    }

    /// An ack arrived: retire the frame and complete the send request it
    /// carried. Control frames (RTS/CTS) complete nothing — their user
    /// requests finish through the protocol, the ack only stops retransmit.
    fn handle_ack(&self, peer: Rank, tseq: u64) -> usize {
        let Some(rel) = &self.reliability else {
            return 0;
        };
        let Some(frame) = rel.retire(peer, tseq) else {
            return 0; // duplicate ack, or the frame already failed locally
        };
        let token = match frame.packet.kind {
            PacketKind::RendezvousRts { .. } | PacketKind::RendezvousCts { .. } => 0,
            _ => frame.cq_token,
        };
        usize::from(token != 0 && self.requests.complete_send(token))
    }

    /// Acknowledge receipt of transport sequence `tseq` back to `src`.
    /// Fire-and-forget: unsequenced, never retransmitted (the peer's
    /// retransmit of the original frame triggers a fresh ack), and charged
    /// to no message counter.
    fn send_ack(&self, dst: Rank, tseq: u64) {
        let ack = Packet::with_kind(
            Envelope {
                src: self.rank,
                dst,
                comm: 0,
                tag: 0,
                seq: 0,
            },
            PacketKind::Ack { tseq },
            Vec::new(),
        );
        // All-instances-dead is ignorable here: the peer keeps retransmitting
        // and eventually fails the frame itself.
        let _ = self.inject_frame(&ack, false);
    }

    /// Route a matchable packet (eager or rendezvous-RTS) through the
    /// matching engine and complete whatever it produced.
    fn handle_matchable(&self, packet: Packet) -> usize {
        let comm = packet.envelope.comm;
        // This thread's event buffer, taken for the call: a nested call
        // would find it empty and use a fresh one.
        let mut events = MATCH_EVENTS.take();
        let delivered = self.with_matcher(comm, |m| m.deliver(packet, &mut events));
        debug_assert!(delivered.is_ok(), "packet for unknown communicator {comm}");
        let mut count = 0;
        for ev in events.drain(..) {
            count += self.complete_match(ev);
        }
        MATCH_EVENTS.set(events);
        count
    }

    /// A matching engine event: a posted receive met its message.
    pub(crate) fn complete_match(&self, ev: MatchEvent) -> usize {
        let env = ev.packet.envelope;
        match ev.packet.kind {
            PacketKind::Eager => self.complete_recv(
                ev.token,
                Message {
                    data: ev.packet.payload,
                    src: env.src,
                    tag: env.tag,
                },
            ),
            PacketKind::RendezvousRts { sender_token, .. } => {
                // Grant the transfer: CTS back to the sender, echoing the
                // user tag so the DATA packet can reconstruct the message
                // identity for the receiver.
                let cts = Packet::with_kind(
                    Envelope {
                        src: self.rank,
                        dst: env.src,
                        comm: env.comm,
                        tag: env.tag,
                        seq: 0,
                    },
                    PacketKind::RendezvousCts {
                        sender_token,
                        receiver_token: ev.token,
                    },
                    Vec::new(),
                );
                self.send_packet(cts, 0);
                // Not yet a user-visible completion.
                0
            }
            _ => {
                debug_assert!(false, "control packet reached the matcher");
                0
            }
        }
    }

    /// Sender side: a CTS arrived, ship the stashed payload.
    fn handle_cts(&self, sender_token: u64, receiver_token: u64, env: Envelope) -> usize {
        let Some(payload) = self.requests.take_stash(sender_token) else {
            debug_assert!(false, "CTS for unknown send request {sender_token}");
            return 0;
        };
        let data = Packet::with_kind(
            Envelope {
                src: self.rank,
                dst: env.src,
                comm: env.comm,
                tag: env.tag,
                seq: 0,
            },
            PacketKind::RendezvousData { receiver_token },
            payload,
        );
        // The DATA packet's send completion carries the sender's token, so
        // draining it completes the user's send request.
        self.send_packet(data, sender_token);
        0
    }

    /// Receiver side: the rendezvous bulk data arrived.
    /// The matcher already counted the message when it matched the RTS.
    fn handle_rendezvous_data(&self, receiver_token: u64, packet: Packet) -> usize {
        self.complete_recv(
            receiver_token,
            Message {
                data: packet.payload,
                src: packet.envelope.src,
                tag: packet.envelope.tag,
            },
        )
    }

    /// Hand a matched message to its receive request (which fails it if
    /// the message does not fit). Returns the user-visible completions.
    fn complete_recv(&self, token: u64, msg: Message) -> usize {
        let len = msg.data.len() as u64;
        match self.requests.complete_recv(token, msg) {
            Some(fits) => {
                if fits {
                    self.spc.add(Counter::BytesReceived, len);
                }
                1
            }
            None => {
                debug_assert!(false, "matched token {token} has no pending request");
                0
            }
        }
    }
}

impl ProgressHandler for ProcState {
    fn on_packet(&self, packet: Packet) -> usize {
        if let Some(rel) = &self.reliability {
            if let PacketKind::Ack { tseq } = packet.kind {
                return self.handle_ack(packet.envelope.src, tseq);
            }
            if packet.tseq != 0 {
                let fresh = rel.accept(packet.envelope.src, packet.tseq);
                // Always (re-)ack — a duplicate usually means our previous
                // ack was lost, and silence would strand the sender in
                // retransmit until its budget runs out.
                self.send_ack(packet.envelope.src, packet.tseq);
                if !fresh {
                    self.spc.inc(Counter::DuplicatesSuppressed);
                    trace::instant("reliability.duplicate_suppressed");
                    return 0;
                }
            }
        }
        match packet.kind {
            PacketKind::Eager | PacketKind::RendezvousRts { .. } => self.handle_matchable(packet),
            PacketKind::RendezvousCts {
                sender_token,
                receiver_token,
            } => self.handle_cts(sender_token, receiver_token, packet.envelope),
            PacketKind::RendezvousData { receiver_token } => {
                self.handle_rendezvous_data(receiver_token, packet)
            }
            // Without a fault plan nothing emits acks; with one they were
            // intercepted above.
            PacketKind::Ack { .. } => 0,
        }
    }

    fn on_completion(&self, completion: Completion) -> usize {
        match completion.kind {
            CompletionKind::SendDone => {
                // Token 0 marks control packets with no request behind them.
                usize::from(completion.token != 0 && self.requests.complete_send(completion.token))
            }
            CompletionKind::RmaDone => {
                let window = WindowId((completion.token >> 32) as u32);
                let target = (completion.token & 0xffff_ffff) as Rank;
                match self.windows.get(window) {
                    Ok(win) => {
                        win.pending_dec(self.rank, target);
                        1
                    }
                    Err(_) => {
                        // Window freed with ops in flight; nothing to do.
                        0
                    }
                }
            }
            // Present in the fabric vocabulary for alternative designs;
            // this runtime returns get/fetch results synchronously.
            CompletionKind::RmaGetDone(_) | CompletionKind::RmaFetchDone(_) => 0,
        }
    }
}
