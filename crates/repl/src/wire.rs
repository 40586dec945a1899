//! The replication frame format.
//!
//! Every frame is self-delimiting at the transport layer (transports carry
//! whole frames) and self-validating at this layer:
//!
//! ```text
//! frame:   magic "SRP1" (4) | type u8 | payload | crc32 u32
//! string:  len u16 | bytes            (column names, refusal reasons)
//! blob:    len u32 | bytes            (raw segment file bytes)
//! values:  len u32 | i64-LE × len     (snapshot frequency vectors)
//! ```
//!
//! All integers are little-endian; the CRC covers every byte before it.
//! A frame that fails validation decodes to
//! [`SynopticError::ReplicationDivergence`] — the receiver reports the
//! reason and the sender's retry ladder re-ships; nothing is ever applied
//! from bytes that did not validate.
//!
//! The protocol is deliberately tiny and leader-driven. Every frame
//! carries the sender's **election term** (see `crate::election`): a
//! receiver on a newer term refuses the frame loudly with its own term in
//! the refusal — that refusal *is* the fencing mechanism that stops a
//! deposed leader from splitting the replicated history. Nodes that never
//! run elections use term 0 everywhere and the checks are vacuous.
//!
//! * [`Frame::Segment`] — one sealed WAL segment, byte-for-byte as it
//!   exists in the leader's journal, plus the leader's current pending
//!   mark so the follower can bound its replication lag.
//! * [`Frame::Heartbeat`] — the leader's mark with no payload: a probe
//!   that solicits an [`Frame::Ack`] (how far is this follower?), keeps
//!   lag accounting fresh between segments, and renews the follower's
//!   leader lease.
//! * [`Frame::Ack`] — the follower's *cumulative* applied LSN. Duplicate
//!   and stale acks are harmless: the shipper tracks the maximum.
//! * [`Frame::Refuse`] — the follower could not apply a segment, with the
//!   reason, its (unchanged) applied LSN, and its current term. Refusals
//!   are the loud half of the "converge or refuse, never silently
//!   diverge" contract; a refusal whose term exceeds the sender's is a
//!   fencing verdict.
//! * [`Frame::Claim`] — a node announces leadership of a term.
//! * [`Frame::Grant`] — the receiver recognizes that leadership (its vote
//!   is persisted before this frame is sent).
//! * [`Frame::Snapshot`] — one column's committed frequency snapshot plus
//!   its WAL mark: the re-seed path for a follower whose retention hold
//!   was cap-evicted (or a fenced ex-leader rejoining). The journal tail
//!   past the mark follows as ordinary [`Frame::Segment`]s.

use synoptic_catalog::checksum::crc32;
use synoptic_core::{Result, SynopticError};

/// Magic bytes opening every replication frame.
pub const FRAME_MAGIC: [u8; 4] = *b"SRP1";

const TYPE_SEGMENT: u8 = 1;
const TYPE_HEARTBEAT: u8 = 2;
const TYPE_ACK: u8 = 3;
const TYPE_REFUSE: u8 = 4;
const TYPE_CLAIM: u8 = 5;
const TYPE_GRANT: u8 = 6;
const TYPE_SNAPSHOT: u8 = 7;

/// One replication protocol message. See the module docs for the roles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Leader → follower: one sealed WAL segment, verbatim file bytes.
    Segment {
        /// The sender's election term (0 when elections are not in play).
        term: u64,
        /// Column the segment belongs to.
        column: String,
        /// Segment sequence number (the follower persists under the same
        /// name, keeping scan order).
        seq: u64,
        /// The leader's pending mark (last acknowledged LSN) when this
        /// frame was sent — the follower's lag reference point.
        leader_mark: u64,
        /// The raw segment file: header plus record stream.
        bytes: Vec<u8>,
    },
    /// Leader → follower: a probe carrying the leader's pending mark.
    /// Also the lease renewal: a follower counts heartbeats (of a
    /// current-or-newer term) toward its leader lease.
    Heartbeat {
        /// The sender's election term.
        term: u64,
        /// Column being probed.
        column: String,
        /// The leader's pending mark.
        leader_mark: u64,
    },
    /// Follower → leader: cumulative progress.
    Ack {
        /// The follower's current election term.
        term: u64,
        /// Column acknowledged.
        column: String,
        /// Highest LSN applied *and locally persisted* by the follower.
        applied_lsn: u64,
    },
    /// Follower → leader: a segment was not applied, and why. When
    /// `term` exceeds the sender's own term, this refusal is a fencing
    /// verdict: a newer leader exists and the sender must stand down.
    Refuse {
        /// The follower's current election term (fencing provenance).
        term: u64,
        /// Column refused (empty when the outer frame didn't validate).
        column: String,
        /// The follower's applied LSN, unchanged by the refusal.
        applied_lsn: u64,
        /// Human-readable reason, also recorded follower-side.
        reason: String,
    },
    /// A node announces it holds leadership of `term`.
    Claim {
        /// The claimed term.
        term: u64,
        /// The claiming node's id.
        node: u64,
    },
    /// The receiver recognizes `node` as the leader of `term`; its vote
    /// was persisted (term + vote in the catalog's WAL-marks section)
    /// before this frame was sent.
    Grant {
        /// The granted term.
        term: u64,
        /// The node granted leadership.
        node: u64,
    },
    /// Re-seed: one column's committed frequency snapshot. Everything at
    /// or below `mark` is captured by `values`; the journal tail past the
    /// mark follows as ordinary [`Frame::Segment`]s.
    Snapshot {
        /// The sender's election term.
        term: u64,
        /// Column being seeded.
        column: String,
        /// The WAL mark the snapshot captures (records ≤ mark included).
        mark: u64,
        /// Exact frequencies at the mark.
        values: Vec<i64>,
    },
}

impl Frame {
    /// The election term stamped on this frame.
    pub fn term(&self) -> u64 {
        match self {
            Frame::Segment { term, .. }
            | Frame::Heartbeat { term, .. }
            | Frame::Ack { term, .. }
            | Frame::Refuse { term, .. }
            | Frame::Claim { term, .. }
            | Frame::Grant { term, .. }
            | Frame::Snapshot { term, .. } => *term,
        }
    }
}

/// Encodes a length-prefixed string. The prefix is a `u16`, so strings of
/// 64 KiB or more (a long `Refuse` reason or column name) are truncated at
/// a char boundary rather than wrapping the length: a wrapped prefix would
/// desynchronise every later field, and the peer would read the whole
/// frame as divergence instead of the (merely shortened) text.
fn put_str(out: &mut Vec<u8>, s: &str) {
    let mut end = s.len().min(usize::from(u16::MAX));
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    out.extend_from_slice(&(end as u16).to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..end]);
}

fn diverged(detail: impl Into<String>) -> SynopticError {
    SynopticError::ReplicationDivergence {
        context: "wire".to_string(),
        detail: detail.into(),
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.bytes.len() - self.at < n {
            return Err(diverged("frame payload truncated"));
        }
        let out = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn str(&mut self) -> Result<String> {
        let len = u16::from_le_bytes(self.take(2)?.try_into().expect("2")) as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| diverged("frame string is not UTF-8"))
    }

    fn blob(&mut self) -> Result<Vec<u8>> {
        let len = u32::from_le_bytes(self.take(4)?.try_into().expect("4")) as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn values(&mut self) -> Result<Vec<i64>> {
        let len = u32::from_le_bytes(self.take(4)?.try_into().expect("4")) as usize;
        let bytes = self.take(
            len.checked_mul(8)
                .ok_or_else(|| diverged("values overflow"))?,
        )?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().expect("8")))
            .collect())
    }

    fn done(&self) -> Result<()> {
        if self.at != self.bytes.len() {
            return Err(diverged(format!(
                "{} trailing bytes after frame payload",
                self.bytes.len() - self.at
            )));
        }
        Ok(())
    }
}

/// Encodes a frame into its checksummed byte representation.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&FRAME_MAGIC);
    match frame {
        Frame::Segment {
            term,
            column,
            seq,
            leader_mark,
            bytes,
        } => {
            out.push(TYPE_SEGMENT);
            out.extend_from_slice(&term.to_le_bytes());
            put_str(&mut out, column);
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&leader_mark.to_le_bytes());
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        Frame::Heartbeat {
            term,
            column,
            leader_mark,
        } => {
            out.push(TYPE_HEARTBEAT);
            out.extend_from_slice(&term.to_le_bytes());
            put_str(&mut out, column);
            out.extend_from_slice(&leader_mark.to_le_bytes());
        }
        Frame::Ack {
            term,
            column,
            applied_lsn,
        } => {
            out.push(TYPE_ACK);
            out.extend_from_slice(&term.to_le_bytes());
            put_str(&mut out, column);
            out.extend_from_slice(&applied_lsn.to_le_bytes());
        }
        Frame::Refuse {
            term,
            column,
            applied_lsn,
            reason,
        } => {
            out.push(TYPE_REFUSE);
            out.extend_from_slice(&term.to_le_bytes());
            put_str(&mut out, column);
            out.extend_from_slice(&applied_lsn.to_le_bytes());
            put_str(&mut out, reason);
        }
        Frame::Claim { term, node } => {
            out.push(TYPE_CLAIM);
            out.extend_from_slice(&term.to_le_bytes());
            out.extend_from_slice(&node.to_le_bytes());
        }
        Frame::Grant { term, node } => {
            out.push(TYPE_GRANT);
            out.extend_from_slice(&term.to_le_bytes());
            out.extend_from_slice(&node.to_le_bytes());
        }
        Frame::Snapshot {
            term,
            column,
            mark,
            values,
        } => {
            out.push(TYPE_SNAPSHOT);
            out.extend_from_slice(&term.to_le_bytes());
            put_str(&mut out, column);
            out.extend_from_slice(&mark.to_le_bytes());
            out.extend_from_slice(&(values.len() as u32).to_le_bytes());
            for v in values {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes and validates one frame. Any failure — bad magic, CRC
/// mismatch, truncation, an unknown type — is
/// [`SynopticError::ReplicationDivergence`]; the bytes are never trusted
/// after this.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame> {
    if bytes.len() < FRAME_MAGIC.len() + 1 + 4 {
        return Err(diverged(format!(
            "{} bytes is shorter than any frame",
            bytes.len()
        )));
    }
    if bytes[0..4] != FRAME_MAGIC {
        return Err(diverged("bad frame magic"));
    }
    let crc_at = bytes.len() - 4;
    let crc_stored = u32::from_le_bytes(bytes[crc_at..].try_into().expect("4"));
    let crc_actual = crc32(&bytes[..crc_at]);
    if crc_stored != crc_actual {
        return Err(diverged("frame CRC mismatch"));
    }
    let kind = bytes[4];
    let mut r = Reader {
        bytes: &bytes[5..crc_at],
        at: 0,
    };
    let frame = match kind {
        TYPE_SEGMENT => {
            let term = r.u64()?;
            let column = r.str()?;
            let seq = r.u64()?;
            let leader_mark = r.u64()?;
            let bytes = r.blob()?;
            Frame::Segment {
                term,
                column,
                seq,
                leader_mark,
                bytes,
            }
        }
        TYPE_HEARTBEAT => Frame::Heartbeat {
            term: r.u64()?,
            column: r.str()?,
            leader_mark: r.u64()?,
        },
        TYPE_ACK => Frame::Ack {
            term: r.u64()?,
            column: r.str()?,
            applied_lsn: r.u64()?,
        },
        TYPE_REFUSE => Frame::Refuse {
            term: r.u64()?,
            column: r.str()?,
            applied_lsn: r.u64()?,
            reason: r.str()?,
        },
        TYPE_CLAIM => Frame::Claim {
            term: r.u64()?,
            node: r.u64()?,
        },
        TYPE_GRANT => Frame::Grant {
            term: r.u64()?,
            node: r.u64()?,
        },
        TYPE_SNAPSHOT => {
            let term = r.u64()?;
            let column = r.str()?;
            let mark = r.u64()?;
            let values = r.values()?;
            Frame::Snapshot {
                term,
                column,
                mark,
                values,
            }
        }
        other => return Err(diverged(format!("unknown frame type {other}"))),
    };
    r.done()?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let bytes = encode_frame(&frame);
        assert_eq!(decode_frame(&bytes).unwrap(), frame);
    }

    #[test]
    fn every_frame_round_trips() {
        round_trip(Frame::Segment {
            term: 3,
            column: "price".into(),
            seq: 7,
            leader_mark: 901,
            bytes: vec![1, 2, 3, 0, 255],
        });
        round_trip(Frame::Heartbeat {
            term: 0,
            column: "c".into(),
            leader_mark: 0,
        });
        round_trip(Frame::Ack {
            term: u64::MAX,
            column: "c".into(),
            applied_lsn: u64::MAX,
        });
        round_trip(Frame::Refuse {
            term: 5,
            column: "c".into(),
            applied_lsn: 3,
            reason: "segment starts at LSN 9 but 4 was expected".into(),
        });
        round_trip(Frame::Claim { term: 2, node: 7 });
        round_trip(Frame::Grant { term: 2, node: 7 });
        round_trip(Frame::Snapshot {
            term: 4,
            column: "price".into(),
            mark: 120,
            values: vec![i64::MIN, -1, 0, 1, i64::MAX],
        });
    }

    #[test]
    fn over_long_strings_truncate_at_a_char_boundary() {
        // Exactly u16::MAX bytes fits whole.
        let fits = "r".repeat(usize::from(u16::MAX));
        round_trip(Frame::Refuse {
            term: 1,
            column: "c".into(),
            applied_lsn: 2,
            reason: fits,
        });
        // 65_534 ASCII bytes then two-byte chars: the u16::MAX cut lands
        // mid-char and backs off to byte 65_534. The fields after the
        // strings must still decode intact.
        let long = "a".repeat(65_534) + &"é".repeat(100);
        let bytes = encode_frame(&Frame::Refuse {
            term: 7,
            column: long.clone(),
            applied_lsn: 41,
            reason: long.clone(),
        });
        let Frame::Refuse {
            term,
            column,
            applied_lsn,
            reason,
        } = decode_frame(&bytes).unwrap()
        else {
            panic!("an over-long Refuse must still decode as a Refuse");
        };
        assert_eq!((term, applied_lsn), (7, 41));
        for back in [column, reason] {
            assert_eq!(back.len(), 65_534, "the cut backs off to a char boundary");
            assert!(long.starts_with(&back), "truncation keeps a prefix");
        }
    }

    #[test]
    fn frame_term_accessor_reads_every_variant() {
        assert_eq!(Frame::Claim { term: 9, node: 1 }.term(), 9);
        assert_eq!(
            Frame::Snapshot {
                term: 4,
                column: "c".into(),
                mark: 0,
                values: vec![],
            }
            .term(),
            4
        );
    }

    #[test]
    fn corruption_anywhere_is_refused() {
        let good = encode_frame(&Frame::Ack {
            term: 1,
            column: "c".into(),
            applied_lsn: 5,
        });
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 0x01;
            assert!(
                matches!(
                    decode_frame(&bad),
                    Err(SynopticError::ReplicationDivergence { .. })
                ),
                "flip at byte {at} must not decode"
            );
        }
        for cut in 0..good.len() {
            assert!(
                decode_frame(&good[..cut]).is_err(),
                "truncation to {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_refused() {
        let mut bytes = encode_frame(&Frame::Heartbeat {
            term: 0,
            column: "c".into(),
            leader_mark: 1,
        });
        // Valid-CRC frame with extra payload spliced in before re-CRCing.
        let crc_at = bytes.len() - 4;
        bytes.truncate(crc_at);
        bytes.extend_from_slice(&[0, 0, 0]);
        let crc = synoptic_catalog::checksum::crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let err = decode_frame(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                SynopticError::ReplicationDivergence { ref detail, .. } if detail.contains("trailing")
            ),
            "{err:?}"
        );
    }

    #[test]
    fn snapshot_with_truncated_values_is_refused() {
        let mut bytes = encode_frame(&Frame::Snapshot {
            term: 1,
            column: "c".into(),
            mark: 2,
            values: vec![10, 20, 30],
        });
        // Cut one value out of the payload and re-CRC: the declared count
        // no longer matches the bytes present.
        let crc_at = bytes.len() - 4;
        bytes.truncate(crc_at - 8);
        let crc = synoptic_catalog::checksum::crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert!(decode_frame(&bytes).is_err());
    }
}
