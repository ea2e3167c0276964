//! The compact little-endian binary encoding.
//!
//! Layout (all little-endian; see `docs/TRACES.md` for the full spec):
//!
//! ```text
//! offset  size  field
//! 0       8     magic "CESTRACE"
//! 8       4     version (u32, currently 1)
//! 12      8     record count (u64)
//! 20      16×n  records
//! ```
//!
//! Each 16-byte record:
//!
//! ```text
//! offset  size  field
//! 0       4     pc (u32)
//! 4       4     target (u32)
//! 8       1     flags (bit 0 = taken; bits 1–7 reserved, must be 0)
//! 9       1     class byte (TraceClass wire order)
//! 10      1     dst register (0xff = none)
//! 11      1     s1 register (0xff = none)
//! 12      1     s2 register (0xff = none)
//! 13      3     padding, must be 0
//! ```

use crate::record::{TraceClass, TraceError, TraceRecord};
use crate::{TRACE_MAGIC, TRACE_VERSION};

/// Bytes of the fixed header.
pub const HEADER_BYTES: usize = 20;
/// Bytes per record.
pub const RECORD_BYTES: usize = 16;

/// Encodes a trace into the binary wire format.
pub fn to_binary(records: &[TraceRecord]) -> Vec<u8> {
    let mut out = vec![0; HEADER_BYTES + records.len() * RECORD_BYTES];
    let (header, body) = out.split_at_mut(HEADER_BYTES);
    header[..8].copy_from_slice(&TRACE_MAGIC);
    header[8..12].copy_from_slice(&TRACE_VERSION.to_le_bytes());
    header[12..].copy_from_slice(&(records.len() as u64).to_le_bytes());
    for (chunk, r) in body.chunks_exact_mut(RECORD_BYTES).zip(records) {
        chunk.copy_from_slice(&encode(r));
    }
    out
}

/// One record as its 16 wire bytes: the layout above, read as a
/// little-endian `u128` (the padding is the zero top bytes).
#[inline]
fn encode(r: &TraceRecord) -> [u8; RECORD_BYTES] {
    let block = u128::from(r.pc)
        | u128::from(r.target) << 32
        | u128::from(r.taken) << 64
        | u128::from(r.class.to_u8()) << 72
        | u128::from(r.dst) << 80
        | u128::from(r.s1) << 88
        | u128::from(r.s2) << 96;
    block.to_le_bytes()
}

/// Decodes the binary wire format. Total: returns a structured
/// [`TraceError`] on any malformed input, never panics.
pub fn from_binary(bytes: &[u8]) -> Result<Vec<TraceRecord>, TraceError> {
    if bytes.len() < HEADER_BYTES {
        return Err(TraceError::TruncatedHeader { len: bytes.len() });
    }
    if bytes[..8] != TRACE_MAGIC {
        return Err(TraceError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != TRACE_VERSION {
        return Err(TraceError::UnsupportedVersion { found: version });
    }
    let count = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let body = &bytes[HEADER_BYTES..];
    let complete = (body.len() / RECORD_BYTES) as u64;
    // Checked multiply: a corrupt header can promise 2^64-1 records.
    let promised = match count.checked_mul(RECORD_BYTES as u64) {
        Some(p) => p,
        None => {
            return Err(TraceError::TruncatedRecords {
                expected: count,
                found: complete,
            })
        }
    };
    let body_len = body.len() as u64;
    if body_len < promised {
        return Err(TraceError::TruncatedRecords {
            expected: count,
            found: complete.min(count),
        });
    }
    if body_len > promised {
        return Err(TraceError::TrailingBytes {
            bytes: (body_len - promised) as usize,
        });
    }
    let mut records = Vec::with_capacity(count as usize);
    for (i, chunk) in body.chunks_exact(RECORD_BYTES).enumerate() {
        let index = i as u64;
        let flags = chunk[8];
        if flags & !1 != 0 {
            return Err(TraceError::BadFlags {
                index,
                value: flags,
            });
        }
        let class = TraceClass::from_u8(chunk[9]).ok_or(TraceError::BadClass {
            index,
            value: chunk[9],
        })?;
        if chunk[13..16] != [0, 0, 0] {
            return Err(TraceError::BadPad { index });
        }
        let r = TraceRecord {
            pc: u32::from_le_bytes(chunk[0..4].try_into().expect("4 bytes")),
            target: u32::from_le_bytes(chunk[4..8].try_into().expect("4 bytes")),
            taken: flags & 1 != 0,
            class,
            dst: chunk[10],
            s1: chunk[11],
            s2: chunk[12],
        };
        r.check_regs(index)?;
        records.push(r);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::NO_REG;

    fn rec(pc: u32) -> TraceRecord {
        TraceRecord {
            pc,
            target: pc + 5,
            taken: pc.is_multiple_of(2),
            class: TraceClass::ALL[pc as usize % 10],
            dst: if pc.is_multiple_of(3) {
                NO_REG
            } else {
                (pc % 32) as u8
            },
            s1: (pc % 32) as u8,
            s2: NO_REG,
        }
    }

    #[test]
    fn round_trips() {
        for n in [0usize, 1, 7, 100] {
            let records: Vec<TraceRecord> = (0..n as u32).map(rec).collect();
            let bytes = to_binary(&records);
            assert_eq!(bytes.len(), HEADER_BYTES + n * RECORD_BYTES);
            assert_eq!(from_binary(&bytes).unwrap(), records);
        }
    }

    #[test]
    fn every_truncation_is_a_structured_error() {
        let records: Vec<TraceRecord> = (0..3u32).map(rec).collect();
        let bytes = to_binary(&records);
        for len in 0..bytes.len() {
            let err = from_binary(&bytes[..len]).unwrap_err();
            match err {
                TraceError::TruncatedHeader { .. } | TraceError::TruncatedRecords { .. } => {}
                other => panic!("unexpected error for len {len}: {other}"),
            }
        }
    }

    #[test]
    fn header_corruption_detected() {
        let bytes = to_binary(&[rec(0)]);
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(from_binary(&bad), Err(TraceError::BadMagic));
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert_eq!(
            from_binary(&bad),
            Err(TraceError::UnsupportedVersion { found: 99 })
        );
        let mut bad = bytes.clone();
        bad[12] = 2; // promise more records than present
        assert_eq!(
            from_binary(&bad),
            Err(TraceError::TruncatedRecords {
                expected: 2,
                found: 1
            })
        );
        let mut bad = bytes;
        bad.push(0); // trailing garbage
        assert!(matches!(
            from_binary(&bad),
            Err(TraceError::TruncatedRecords { .. } | TraceError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn record_corruption_detected() {
        let base = to_binary(&[rec(1)]);
        let mut bad = base.clone();
        bad[HEADER_BYTES + 8] = 0x82; // reserved flag bit
        assert!(matches!(
            from_binary(&bad),
            Err(TraceError::BadFlags { index: 0, .. })
        ));
        let mut bad = base.clone();
        bad[HEADER_BYTES + 9] = 200; // class byte
        assert!(matches!(
            from_binary(&bad),
            Err(TraceError::BadClass { index: 0, .. })
        ));
        let mut bad = base.clone();
        bad[HEADER_BYTES + 14] = 1; // padding
        assert_eq!(from_binary(&bad), Err(TraceError::BadPad { index: 0 }));
        let mut bad = base;
        bad[HEADER_BYTES + 10] = 32; // register out of range, not NO_REG
        assert!(matches!(
            from_binary(&bad),
            Err(TraceError::BadReg {
                index: 0,
                value: 32
            })
        ));
    }
}
