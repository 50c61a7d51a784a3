//! Two-sided point-to-point operations.

use fairmpi_fabric::{Envelope, Packet, PacketKind, Rank, Tag, ANY_SOURCE, ANY_TAG};
use fairmpi_matching::{PostOutcome, PostedRecv};
use fairmpi_spc::Counter;
use fairmpi_trace as trace;

use crate::comm::Communicator;
use crate::error::{MpiError, Result};
use crate::proc::Proc;
use crate::request::{Message, Request};

impl Proc {
    fn validate_send(&self, dst: Rank, tag: Tag) -> Result<()> {
        self.state.validate_rank(dst)?;
        if tag < 0 {
            return Err(MpiError::InvalidTag(tag));
        }
        Ok(())
    }

    fn validate_recv(&self, src: i32, tag: Tag) -> Result<()> {
        if src != ANY_SOURCE {
            if src < 0 {
                return Err(MpiError::InvalidRank(src));
            }
            self.state.validate_rank(src as Rank)?;
        }
        if tag < 0 && tag != ANY_TAG {
            return Err(MpiError::InvalidTag(tag));
        }
        Ok(())
    }

    /// Nonblocking send (`MPI_Isend`).
    ///
    /// Messages at most the fabric's eager threshold travel with their
    /// envelope; longer ones use the rendezvous protocol (RTS/CTS/DATA).
    /// Either way the payload is captured immediately, so the buffer is
    /// reusable on return — completion of the request signals that the
    /// runtime handed everything to the network.
    pub fn isend(&self, buf: &[u8], dst: Rank, tag: Tag, comm: Communicator) -> Result<Request> {
        self.validate_send(dst, tag)?;
        self.isend_unchecked(buf, dst, tag, comm)
    }

    /// `isend` without user-tag validation; collectives use it with
    /// reserved negative tags that wildcard receives can never match.
    pub(crate) fn isend_unchecked(
        &self,
        buf: &[u8],
        dst: Rank,
        tag: Tag,
        comm: Communicator,
    ) -> Result<Request> {
        let _span = trace::span("mpi.send");
        let st = &self.state;
        // Sequence assignment happens outside the instance lock — the race
        // between drawing a number and injecting the packet is the origin
        // of out-of-sequence arrivals under thread concurrency.
        let seq = st.with_comm(comm.id, |cs| {
            if dst as usize >= cs.size {
                return Err(MpiError::InvalidRank(dst as i32));
            }
            Ok(cs.sequencer.next(dst))
        })??;
        let eager = buf.len() <= st.fabric.config().eager_threshold;
        let token = if eager {
            st.requests.new_send(st.rank, tag, None)
        } else {
            st.requests.new_send(st.rank, tag, Some(buf.to_vec()))
        };
        let envelope = Envelope {
            src: st.rank,
            dst,
            comm: comm.id,
            tag,
            seq,
        };

        // Build the wire packet (eager payload, or the rendezvous RTS whose
        // completion token 0 marks it as control-only).
        let (packet, cq_token) = if eager {
            st.spc.inc(Counter::EagerSends);
            (Packet::eager(envelope, buf.to_vec()), token)
        } else {
            st.spc.inc(Counter::RendezvousSends);
            let rts = Packet::with_kind(
                envelope,
                PacketKind::RendezvousRts {
                    len: buf.len(),
                    sender_token: token,
                },
                Vec::new(),
            );
            (rts, 0)
        };

        if let Some(rt) = st.offload_runtime() {
            // Offload: enqueue the descriptor; a worker injects it. The
            // sequence number above was already drawn in program order, so
            // worker interleaving cannot overtake. A refused submission
            // (fail-fast backpressure, or shutdown racing) falls through to
            // the direct path with the same packet.
            match rt.submit(fairmpi_offload::Command::Send {
                packet,
                token,
                cq_token,
            }) {
                Ok(()) => return Ok(Request { token }),
                Err(fairmpi_offload::Command::Send {
                    packet, cq_token, ..
                }) => {
                    let _big = st.maybe_big_lock();
                    st.send_packet(packet, cq_token);
                    return Ok(Request { token });
                }
                Err(_) => unreachable!("send submission hands back a send"),
            }
        }

        let _big = st.maybe_big_lock();
        st.send_packet(packet, cq_token);
        Ok(Request { token })
    }

    /// Blocking send (`MPI_Send`): `isend` + `wait`.
    pub fn send(&self, buf: &[u8], dst: Rank, tag: Tag, comm: Communicator) -> Result<()> {
        let req = self.isend(buf, dst, tag, comm)?;
        self.wait(&req).map(|_| ())
    }

    /// Nonblocking receive (`MPI_Irecv`) into an internal buffer of
    /// `capacity` bytes. `src` may be [`ANY_SOURCE`], `tag` may be
    /// [`ANY_TAG`]. The message is returned by [`Proc::wait`].
    pub fn irecv(
        &self,
        capacity: usize,
        src: i32,
        tag: Tag,
        comm: Communicator,
    ) -> Result<Request> {
        self.validate_recv(src, tag)?;
        self.irecv_unchecked(capacity, src, tag, comm)
    }

    /// `irecv` without user-tag validation (reserved-tag collectives).
    pub(crate) fn irecv_unchecked(
        &self,
        capacity: usize,
        src: i32,
        tag: Tag,
        comm: Communicator,
    ) -> Result<Request> {
        let _span = trace::span("mpi.recv");
        let st = &self.state;
        let offload = st.offload_runtime();
        if offload.is_some() {
            // A worker posts the receive later and cannot report a bad
            // communicator back, so check it now.
            st.with_comm(comm.id, |_| ())?;
        }
        let token = st.requests.new_recv(capacity);
        let posted = PostedRecv {
            token,
            comm: comm.id,
            src,
            tag,
        };
        if let Some(rt) = offload {
            // Offload: the descriptor carries an order ticket so workers
            // post receives in program order (the matcher serves posted
            // receives FIFO). Never fails — refusals post inline through
            // the same ordering protocol.
            rt.submit_recv(posted);
            return Ok(Request { token });
        }
        let _big = st.maybe_big_lock();
        // The matcher lookup is the communicator check on this path.
        let (outcome, _work) = match st.with_matcher(comm.id, |m| m.post_recv(posted)) {
            Ok(posted) => posted,
            Err(err) => {
                st.requests.discard(token);
                return Err(err);
            }
        };
        if let PostOutcome::Matched(packet) = outcome {
            // An unexpected message was already waiting; complete (or, for
            // a rendezvous RTS, grant) it right here.
            st.complete_match(fairmpi_matching::MatchEvent { token, packet });
        }
        Ok(Request { token })
    }

    /// Blocking receive (`MPI_Recv`): `irecv` + `wait`.
    pub fn recv(&self, capacity: usize, src: i32, tag: Tag, comm: Communicator) -> Result<Message> {
        let req = self.irecv(capacity, src, tag, comm)?;
        self.wait(&req)
    }

    /// Block until a request completes (`MPI_Wait`), progressing the
    /// engine while waiting. Send requests yield an empty acknowledgment
    /// message; receive requests yield the received message. A request
    /// that was already reaped — by an earlier wait, or by a wait on a
    /// clone of the handle — is an [`MpiError::InvalidRequest`].
    pub fn wait(&self, request: &Request) -> Result<Message> {
        let _span = trace::span("mpi.wait");
        let st = &self.state;
        let mut idle_spins = 0u32;
        loop {
            if let Some(outcome) = st.requests.try_reap(request.token) {
                return outcome;
            }
            // Drives the engine directly, or — in offload mode — only
            // drains this thread's completion notifications while the
            // workers progress.
            if st.advance() == 0 {
                idle_spins += 1;
                if idle_spins > 64 {
                    std::thread::yield_now();
                }
            } else {
                idle_spins = 0;
            }
        }
    }

    /// Nonblocking completion test (`MPI_Test`). Returns `Ok(Some(msg))`
    /// and reaps the request when complete; `Ok(None)` otherwise (after one
    /// progress pass).
    pub fn test(&self, request: &Request) -> Result<Option<Message>> {
        let st = &self.state;
        if let Some(outcome) = st.requests.try_reap(request.token) {
            return outcome.map(Some);
        }
        st.advance();
        st.requests.try_reap(request.token).transpose()
    }

    /// Wait for every request (`MPI_Waitall`); outcomes in request order.
    pub fn waitall(&self, requests: &[Request]) -> Result<Vec<Message>> {
        requests.iter().map(|r| self.wait(r)).collect()
    }

    /// Wait for *one* of the requests to complete (`MPI_Waitany`),
    /// returning its index and outcome and reaping only that request.
    pub fn wait_any(&self, requests: &[Request]) -> Result<(usize, Message)> {
        let st = &self.state;
        if requests.is_empty() {
            return Err(MpiError::InvalidRequest(0));
        }
        for r in requests {
            st.requests
                .is_done(r.token)
                .ok_or(MpiError::InvalidRequest(r.token))?;
        }
        loop {
            for (i, r) in requests.iter().enumerate() {
                if let Some(outcome) = st.requests.try_reap(r.token) {
                    return outcome.map(|m| (i, m));
                }
            }
            if st.advance() == 0 {
                std::thread::yield_now();
            }
        }
    }

    /// Blocking probe (`MPI_Probe`): wait until a matching message is
    /// enqueued unexpected, returning `(src, tag)` without receiving it.
    pub fn probe(&self, src: i32, tag: Tag, comm: Communicator) -> Result<(Rank, Tag)> {
        loop {
            if let Some(found) = self.iprobe(src, tag, comm)? {
                return Ok(found);
            }
            if self.state.advance() == 0 {
                std::thread::yield_now();
            }
        }
    }

    /// Nonblocking probe (`MPI_Iprobe`).
    pub fn iprobe(&self, src: i32, tag: Tag, comm: Communicator) -> Result<Option<(Rank, Tag)>> {
        self.validate_recv(src, tag)?;
        self.state.with_matcher(comm.id, |m| {
            m.iprobe(comm.id, src, tag).map(|e| (e.src, e.tag))
        })
    }

    /// Cancel a pending receive (`MPI_Cancel`). Returns true if the receive
    /// was still posted (and is now cancelled); false if it already matched.
    pub fn cancel_recv(&self, request: &Request, comm: Communicator) -> Result<bool> {
        let st = &self.state;
        st.requests
            .is_done(request.token)
            .ok_or(MpiError::InvalidRequest(request.token))?;
        if st.requests.is_cancelled(request.token) {
            return Ok(true);
        }
        if let Some(rt) = st.offload.get() {
            // A worker may not have posted the receive yet, and a receive
            // the matcher has not seen cannot be found there. Shutdown
            // drains the queues, so this also holds while it runs.
            rt.wait_recvs_posted();
        }
        let removed = st.with_matcher(comm.id, |m| m.cancel(request.token))?;
        if removed {
            st.requests.cancel(request.token);
        }
        Ok(removed)
    }

    /// Combined send and receive (`MPI_Sendrecv`).
    #[allow(clippy::too_many_arguments)] // mirrors the MPI_Sendrecv signature
    pub fn sendrecv(
        &self,
        send_buf: &[u8],
        dst: Rank,
        send_tag: Tag,
        recv_capacity: usize,
        src: i32,
        recv_tag: Tag,
        comm: Communicator,
    ) -> Result<Message> {
        let rreq = self.irecv(recv_capacity, src, recv_tag, comm)?;
        let sreq = self.isend(send_buf, dst, send_tag, comm)?;
        let msg = self.wait(&rreq)?;
        self.wait(&sreq)?;
        Ok(msg)
    }
}
