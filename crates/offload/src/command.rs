//! Command descriptors.

use fairmpi_fabric::{Packet, Rank};
use fairmpi_matching::PostedRecv;

/// One communication descriptor enqueued by an application thread and
/// executed by an offload worker against the real CRI/matching/fabric
/// engine. Descriptors are plain data: everything the worker needs travels
/// in the command, so application threads never touch the instance or
/// matching locks.
#[derive(Debug)]
pub enum Command {
    /// Inject a prebuilt two-sided packet (eager payload or rendezvous
    /// RTS). The sequence number inside the packet was drawn by the
    /// *application* thread at enqueue time, so per-thread program order —
    /// the MPI non-overtaking rule — survives any worker interleaving.
    Send {
        /// The wire packet, envelope and payload included.
        packet: Packet,
        /// Request-table token the producer waits on.
        token: u64,
        /// Token handed to the fabric completion queue (the request token
        /// for eager sends, 0 for control-only RTS packets).
        cq_token: u64,
    },
    /// Post a receive to the matching engine (`posted.token` is the
    /// request-table token).
    Recv {
        /// The matching-engine post descriptor.
        posted: PostedRecv,
        /// Dense program-order ticket drawn at enqueue time. The matcher
        /// serves posted receives FIFO, so the backend must post in ticket
        /// order even when different workers drain the descriptors.
        order: u64,
    },
    /// One-sided put into a window.
    Put {
        /// Window identifier (the core crate's `WindowId` payload).
        window: u64,
        /// Target rank.
        target: Rank,
        /// Byte offset inside the target's window region.
        offset: usize,
        /// Payload bytes.
        data: Vec<u8>,
        /// Request-table token completed once the put is injected.
        token: u64,
    },
    /// Complete once every RMA op this rank issued toward `target` (or
    /// all targets) has drained — the passive-target flush.
    Flush {
        /// Window identifier.
        window: u64,
        /// Target to flush toward; `None` flushes all targets.
        target: Option<Rank>,
        /// Request-table token completed when the window is drained.
        token: u64,
    },
}

impl Command {
    /// The request-table token the producer is waiting on.
    pub fn token(&self) -> u64 {
        match self {
            Command::Send { token, .. } => *token,
            Command::Recv { posted, .. } => posted.token,
            Command::Put { token, .. } => *token,
            Command::Flush { token, .. } => *token,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairmpi_fabric::Envelope;

    #[test]
    fn command_token_extraction() {
        let send = Command::Send {
            packet: Packet::eager(
                Envelope {
                    src: 0,
                    dst: 1,
                    comm: 0,
                    tag: 5,
                    seq: 0,
                },
                vec![1],
            ),
            token: 42,
            cq_token: 42,
        };
        assert_eq!(send.token(), 42);
        let recv = Command::Recv {
            posted: PostedRecv {
                token: 7,
                comm: 0,
                src: 0,
                tag: 5,
            },
            order: 0,
        };
        assert_eq!(recv.token(), 7);
        let put = Command::Put {
            window: 1,
            target: 0,
            offset: 0,
            data: vec![],
            token: 9,
        };
        assert_eq!(put.token(), 9);
        let flush = Command::Flush {
            window: 1,
            target: None,
            token: 11,
        };
        assert_eq!(flush.token(), 11);
    }
}
