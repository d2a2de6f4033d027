//! Segment framing for the checkpoint files.
//!
//! The evaluation-cache tier files (`eval_cache.bin`, `eval_cache.op.bin`,
//! `eval_cache.warm.bin`) and the sweep ledger (`sweep.bin`) are each a
//! run of one or more segments. A segment is one `serde::bin` envelope of
//! the file's magic and version. A file written in one go is one segment —
//! exactly the plain envelope format, so no version changed — while a
//! checkpoint session appends one segment at a time and, when its range is
//! finished, replaces the file by one canonical segment.
//!
//! This module owns that framing: [`read`] splits a file into its whole
//! segments under the torn-tail rule, [`append`] adds a segment or cuts
//! the file back to where it was, [`replace`] swaps a file atomically, and
//! [`begin`]/[`finish`] build a segment in one buffer.

use serde::bin::{self, ENVELOPE_HEADER_LEN};
use std::io::Write as _;
use std::path::Path;

/// How [`read`] found a file: its whole segments and whether it ends
/// inside one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Split {
    /// How many whole segments were read.
    pub segments: usize,
    /// Where the whole segments end; the file's length unless torn.
    pub whole_len: usize,
    /// Whether the file ends inside a segment — what a process killed
    /// mid-append leaves. (An empty file is a torn first segment.)
    pub torn: bool,
}

/// Reads `bytes` segment by segment, handing each whole segment's file
/// offset and validated payload to `each`, in file order. A segment is
/// adopted whole or not at all: damage inside any segment, or an error
/// from `each`, fails the whole file with the cause, prefixed by
/// `segment at byte N: ` past the first segment. A file that ends inside
/// its last segment is not damage: the segments before it are read and
/// [`Split::torn`] says so.
pub(crate) fn read(
    bytes: &[u8],
    magic: [u8; 8],
    version: u32,
    mut each: impl FnMut(usize, &[u8]) -> Result<(), String>,
) -> Result<Split, String> {
    let mut split = Split { segments: 0, whole_len: 0, torn: false };
    while split.whole_len < bytes.len() || split.segments == 0 {
        let at = split.whole_len;
        let rest = &bytes[at..];
        let Some(end) = segment_end(rest, magic, version) else {
            split.torn = true;
            break;
        };
        // Offsets in envelope errors count from the segment's first byte.
        let at_segment =
            |what: String| if at == 0 { what } else { format!("segment at byte {at}: {what}") };
        let payload = bin::read_envelope(magic, version, &rest[..end])
            .map_err(|e| at_segment(e.to_string()))?;
        each(at, payload).map_err(at_segment)?;
        split.segments += 1;
        split.whole_len += end;
    }
    Ok(split)
}

/// The length of the segment that starts `rest`, or `None` when `rest` is
/// a strict prefix of a segment of this magic and version (the file ends
/// inside it). Bytes that cannot start such a segment claim all of `rest`,
/// so the envelope check reports why.
fn segment_end(rest: &[u8], magic: [u8; 8], version: u32) -> Option<usize> {
    // Envelope header: magic (8 bytes), version (u32), payload length
    // (u64), checksum (u64), little-endian.
    let mut tag = magic.to_vec();
    tag.extend_from_slice(&version.to_le_bytes());
    let seen = rest.len().min(tag.len());
    if rest[..seen] != tag[..seen] {
        return Some(rest.len());
    }
    if rest.len() < ENVELOPE_HEADER_LEN {
        return None;
    }
    let len = u64::from_le_bytes(rest[12..20].try_into().expect("8 bytes"));
    let end = usize::try_from(len).ok()?.checked_add(ENVELOPE_HEADER_LEN)?;
    (end <= rest.len()).then_some(end)
}

/// Appends `segment` to the file at `path`, creating it if needed. A
/// failed write cuts the file back to its old length, so the next append
/// still starts on a segment boundary.
///
/// # Errors
/// Propagates the open or write failure.
pub(crate) fn append(path: &Path, segment: &[u8]) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    let len = file.metadata()?.len();
    file.write_all(segment).inspect_err(|_| {
        let _ = file.set_len(len);
    })
}

/// Atomically replaces the file at `path` by `bytes` (temp file +
/// rename), so a process killed mid-write leaves the old file or a temp
/// file no reader looks at, never a torn file.
///
/// # Errors
/// Propagates the write or rename failure.
pub(crate) fn replace(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Starts a segment buffer with room for a payload of `capacity` bytes:
/// the envelope header is reserved, and the payload is pushed after it.
pub(crate) fn begin(capacity: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(ENVELOPE_HEADER_LEN + capacity);
    buf.resize(ENVELOPE_HEADER_LEN, 0);
    buf
}

/// Fills in the envelope header of a [`begin`] buffer, making it the
/// segment [`bin::write_envelope`] gives for the same payload.
pub(crate) fn finish(buf: &mut [u8], magic: [u8; 8], version: u32) {
    let (header, payload) = buf.split_at_mut(ENVELOPE_HEADER_LEN);
    header[..8].copy_from_slice(&magic);
    header[8..12].copy_from_slice(&version.to_le_bytes());
    header[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[20..28].copy_from_slice(&bin::fnv1a(payload).to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"FASTTST1";

    fn segment(payload: &[u8]) -> Vec<u8> {
        let mut buf = begin(payload.len());
        buf.extend_from_slice(payload);
        finish(&mut buf, MAGIC, 1);
        buf
    }

    #[test]
    fn a_built_segment_is_the_plain_envelope() {
        for payload in [&b""[..], b"x", b"a longer payload"] {
            assert_eq!(segment(payload), bin::write_envelope(MAGIC, 1, payload));
        }
    }

    #[test]
    fn whole_segments_are_read_and_a_torn_tail_is_not_damage() {
        let file = [segment(b"one"), segment(b"two"), segment(b"three")].concat();
        let mut seen = Vec::new();
        let split = read(&file, MAGIC, 1, |at, p| {
            seen.push((at, p.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(split, Split { segments: 3, whole_len: file.len(), torn: false });
        assert_eq!(seen[1], (ENVELOPE_HEADER_LEN + 3, b"two".to_vec()));

        let last = file.len() - segment(b"three").len();
        for cut in last + 1..file.len() {
            let split = read(&file[..cut], MAGIC, 1, |_, _| Ok(())).unwrap();
            assert_eq!(split, Split { segments: 2, whole_len: last, torn: true }, "cut {cut}");
        }
        let empty = read(&[], MAGIC, 1, |_, _| Ok(())).unwrap();
        assert_eq!(empty, Split { segments: 0, whole_len: 0, torn: true });
    }

    #[test]
    fn damage_in_any_segment_fails_the_file_and_names_the_segment() {
        let mut file = [segment(b"one"), segment(b"two")].concat();
        let last = file.len() - 1;
        file[last] ^= 1;
        let err = read(&file, MAGIC, 1, |_, _| Ok(())).unwrap_err();
        assert!(
            err.starts_with(&format!("segment at byte {}: ", ENVELOPE_HEADER_LEN + 3)),
            "{err}"
        );
        assert!(err.contains("checksum"), "{err}");
        let err = read(&segment(b"one"), MAGIC, 2, |_, _| Ok(())).unwrap_err();
        assert!(err.contains("format version 1, expected 2"), "{err}");
        let err = read(&segment(b"one"), MAGIC, 1, |_, _| Err("bad entry".into())).unwrap_err();
        assert_eq!(err, "bad entry");
    }
}
