//! Write-ahead submission log.
//!
//! Every accepted submission is appended as one length-prefixed,
//! checksummed record *before* the service acknowledges it, so a crash
//! never loses an acknowledged job. On-disk layout:
//!
//! ```text
//! ┌──────────────┬──────────────────────────────────────────┬───┐
//! │ magic (8 B)  │ record 0                                 │ … │
//! │ "MLFSWAL1"   │ ┌─────────┬─────────┬──────────────────┐ │   │
//! │              │ │ len u32 │ crc u32 │ payload (len B)  │ │   │
//! │              │ │ LE      │ LE      │ JSON `WalRecord` │ │   │
//! │              │ └─────────┴─────────┴──────────────────┘ │   │
//! └──────────────┴──────────────────────────────────────────┴───┘
//! ```
//!
//! The CRC-32 (IEEE polynomial, slice-by-8 tables built in a
//! `const` — no external crate) covers the payload bytes only. A
//! record that fails validation is classified by position: the
//! *final* record is a torn tail (the crash interrupted the append)
//! and is truncated away; any earlier record is real corruption and
//! surfaces as [`WalError::Corrupt`] — silently dropping acknowledged
//! history would be worse than refusing to start.
//!
//! The writer keeps the `(seq, offset)` of every frame in its file, so
//! compaction copies the frames it keeps byte for byte (checking each
//! one's length and CRC) instead of parsing and re-rendering them.

use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use workload::JobSpec;

/// First 8 bytes of every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"MLFSWAL1";

/// Per-record fixed header: `len` + `crc`, both little-endian u32.
const REC_HEADER: usize = 8;

/// CRC-32 (IEEE 802.3) slice-by-8 lookup tables, built at compile
/// time. `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[k]`
/// advances a byte through `k` further zero bytes, so eight lookups
/// consume eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        // lint:allow(panic-slice-index) reason="const-fn table build; i ranges over 0..256 by the loop bound"
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            // lint:allow(panic-slice-index) reason="const-fn table build; 1 <= t < 8 and i < 256 by the loop bounds"
            let prev = tables[t - 1][i];
            // lint:allow(panic-slice-index) reason="const-fn table build; t < 8 and i < 256 by the loop bounds, and the inner index is masked to 0xFF"
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// `table[index & 0xFF]`.
#[inline(always)]
fn lookup(table: &[u32; 256], index: u32) -> u32 {
    // lint:allow(panic-slice-index) reason="index is masked to 0xFF over a 256-entry table"
    table[(index & 0xFF) as usize]
}

/// CRC-32 (IEEE) of `bytes`, eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut c = u32::MAX;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(<[u8; 8]>::try_from(word).unwrap_or_default());
        let lo = word as u32 ^ c;
        let hi = (word >> 32) as u32;
        c = lookup(t7, lo)
            ^ lookup(t6, lo >> 8)
            ^ lookup(t5, lo >> 16)
            ^ lookup(t4, lo >> 24)
            ^ lookup(t3, hi)
            ^ lookup(t2, hi >> 8)
            ^ lookup(t1, hi >> 16)
            ^ lookup(t0, hi >> 24);
    }
    for &b in words.remainder() {
        c = lookup(t0, c ^ b as u32) ^ (c >> 8);
    }
    c ^ u32::MAX
}

/// The frame starting at `pos`: `(payload, crc, end)`, if its header
/// and payload fit in `bytes`. The caller checks the CRC.
fn frame_at(bytes: &[u8], pos: usize) -> Option<(&[u8], u32, usize)> {
    let len = le_u32(bytes, pos)? as usize;
    let crc = le_u32(bytes, pos + 4)?;
    let start = pos + REC_HEADER;
    let end = start.saturating_add(len);
    Some((bytes.get(start..end)?, crc, end))
}

/// Little-endian u32 at `at`, if the slice is long enough.
fn le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let s = bytes.get(at..at.checked_add(4)?)?;
    let mut a = [0u8; 4];
    for (d, b) in a.iter_mut().zip(s) {
        *d = *b;
    }
    Some(u32::from_le_bytes(a))
}

/// One logged submission: the accepted sequence number (1-based,
/// equals the service's `accepted` counter after this submit), the
/// engine round at submission time, and the full job spec.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WalRecord {
    /// 1-based acceptance sequence number.
    pub seq: u64,
    /// `Service::rounds()` at submission time — replay ticks the
    /// engine back to this round before re-injecting.
    pub round: u64,
    /// The accepted job.
    pub spec: JobSpec,
}

/// When appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append. Durable through power loss, but
    /// each submit pays a device flush.
    Always,
    /// `fsync` every `n` appends (and on snapshot). Bounds loss to at
    /// most `n − 1` acknowledged submissions on power loss; an
    /// OS-level process crash alone loses nothing (the page cache
    /// survives).
    EveryN(u32),
    /// Never `fsync` explicitly; rely on the OS writeback. Fastest,
    /// weakest.
    Never,
}

/// Why a WAL could not be read.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file exists but does not start with [`WAL_MAGIC`].
    BadMagic,
    /// A record *before* the final one failed its checksum or did not
    /// parse: acknowledged history is damaged and replay cannot be
    /// trusted. `offset` is the byte position of the bad record.
    Corrupt { offset: u64 },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::BadMagic => write!(f, "wal file has wrong magic"),
            WalError::Corrupt { offset } => {
                write!(f, "wal corrupt mid-log at byte {offset}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Result of scanning a WAL file.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Every valid record, in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset of each record's frame, parallel to `records`.
    pub offsets: Vec<u64>,
    /// Byte length of the valid prefix (where appends must resume).
    pub valid_len: u64,
    /// `Some((at, dropped))` if a torn tail was detected: `dropped`
    /// trailing bytes starting at offset `at` are not a valid record.
    pub torn: Option<(u64, u64)>,
}

/// Scan `path`, validating every record. A missing file yields an
/// empty scan. A torn tail (short or checksum-failing *final* record)
/// is reported in [`WalScan::torn`], not an error — the caller
/// truncates and continues.
pub fn read_wal(path: &Path) -> Result<WalScan, WalError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalScan::default());
        }
        Err(e) => return Err(WalError::Io(e)),
    };
    if bytes.len() < WAL_MAGIC.len() {
        // File created but the magic itself was torn: everything goes.
        return Ok(WalScan {
            torn: Some((0, bytes.len() as u64)),
            ..WalScan::default()
        });
    }
    if bytes.get(..WAL_MAGIC.len()) != Some(WAL_MAGIC.as_slice()) {
        return Err(WalError::BadMagic);
    }
    let mut scan = WalScan::default();
    let mut pos = WAL_MAGIC.len();
    let total = bytes.len();
    while pos < total {
        // A frame running past EOF means the append was interrupted.
        let Some((payload, crc, end)) = frame_at(&bytes, pos) else {
            break;
        };
        if crc32(payload) != crc {
            if end == total {
                break;
            }
            return Err(WalError::Corrupt { offset: pos as u64 });
        }
        let parsed: Option<WalRecord> = std::str::from_utf8(payload)
            .ok()
            .and_then(|s| serde_json::from_str(s).ok());
        match parsed {
            Some(rec) => scan.records.push(rec),
            // Checksum valid but unparseable: a writer bug or schema
            // break, not a crash artifact — never silently truncate.
            None => return Err(WalError::Corrupt { offset: pos as u64 }),
        }
        scan.offsets.push(pos as u64);
        pos = end;
    }
    scan.valid_len = pos as u64;
    if pos < total {
        scan.torn = Some((pos as u64, (total - pos) as u64));
    }
    Ok(scan)
}

impl WalScan {
    /// `(seq, frame offset)` of every valid record: the frame index a
    /// [`WalWriter`] reopened over this file starts from.
    pub fn frames(&self) -> Vec<(u64, u64)> {
        self.records
            .iter()
            .map(|r| r.seq)
            .zip(self.offsets.iter().copied())
            .collect()
    }
}

/// Truncate `path` to `valid_len` bytes (drop a torn tail) and sync.
pub fn truncate_to(path: &Path, valid_len: u64) -> std::io::Result<()> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(valid_len)?;
    f.sync_data()?;
    Ok(())
}

/// Append handle over a WAL file. Writes go straight to the `File`
/// (no userspace buffering) so a crash can tear at most the final
/// record — exactly the case the reader repairs.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    unsynced: u32,
    /// `(seq, offset)` of every frame in the file, in file order.
    frames: Vec<(u64, u64)>,
    /// File length: where the next frame starts.
    len: u64,
}

impl WalWriter {
    /// Create a fresh WAL at `path` (truncating any existing file),
    /// write the magic, and sync it.
    pub fn create(path: &Path) -> std::io::Result<WalWriter> {
        let mut file = File::create(path)?;
        file.write_all(WAL_MAGIC)?;
        file.sync_data()?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            unsynced: 0,
            frames: Vec::new(),
            len: WAL_MAGIC.len() as u64,
        })
    }

    /// Open an existing WAL for appending at `valid_len`, holding the
    /// frames `frames` (`(seq, offset)` pairs, from a prior
    /// [`read_wal`] scan via [`WalScan::frames`]; any torn tail must
    /// already be truncated away by [`truncate_to`]).
    pub fn open_at(
        path: &Path,
        valid_len: u64,
        frames: Vec<(u64, u64)>,
    ) -> std::io::Result<WalWriter> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            unsynced: 0,
            frames,
            len: valid_len,
        })
    }

    /// Append one record; returns `(bytes_written, fsynced)`.
    pub fn append(&mut self, rec: &WalRecord, fsync: FsyncPolicy) -> std::io::Result<(u32, bool)> {
        let payload =
            serde_json::to_string(rec).map_err(|e| std::io::Error::other(e.to_string()))?;
        let payload = payload.as_bytes();
        let len = payload.len() as u32;
        let crc = crc32(payload);
        let mut buf = Vec::with_capacity(REC_HEADER + payload.len());
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&crc.to_le_bytes());
        buf.extend_from_slice(payload);
        self.file.write_all(&buf)?;
        self.frames.push((rec.seq, self.len));
        self.len += buf.len() as u64;
        self.unsynced += 1;
        let do_sync = match fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if do_sync {
            self.sync()?;
        }
        Ok((buf.len() as u32, do_sync))
    }

    /// Flush OS buffers to the device and reset the unsynced counter.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Drop every frame before the first with `seq > floor` by copying
    /// the rest, byte for byte, into a temp file and renaming it over
    /// the log (atomic on POSIX). Each kept frame's length and CRC is
    /// checked on the way; damage is an error and the log is left as
    /// it was. Called after snapshot retention: records already
    /// covered by the *oldest retained* snapshot can never be replayed
    /// again. Returns the number of records dropped.
    pub fn compact(&mut self, floor: u64) -> std::io::Result<u64> {
        let cut = self
            .frames
            .iter()
            .position(|&(seq, _)| seq > floor)
            .unwrap_or(self.frames.len());
        if cut == 0 {
            return Ok(0);
        }
        let kept = self.frames.get(cut..).unwrap_or_default();
        let from = kept.first().map_or(self.len, |&(_, offset)| offset);
        let want = self.len.saturating_sub(from);

        // The new file's bytes: the magic, then the kept frames.
        let mut bytes = WAL_MAGIC.to_vec();
        let mut old = File::open(&self.path)?;
        old.seek(SeekFrom::Start(from))?;
        old.take(want).read_to_end(&mut bytes)?;
        let base = WAL_MAGIC.len() as u64;
        let frames: Vec<(u64, u64)> = kept
            .iter()
            .map(|&(seq, offset)| (seq, offset - from + base))
            .collect();
        check_frames(&bytes, &frames).map_err(|at| corrupt(at - base + from))?;

        let tmp = self.path.with_extension("log.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // The old handle still points at the unlinked inode; reopen.
        *self = WalWriter::open_at(&self.path, bytes.len() as u64, frames)?;
        Ok(cut as u64)
    }
}

/// The I/O error compaction reports for a damaged frame at `offset`.
fn corrupt(offset: u64) -> std::io::Error {
    std::io::Error::other(WalError::Corrupt { offset }.to_string())
}

/// Check that `bytes` holds exactly the frames `frames` (`(seq,
/// offset)`, offsets into `bytes`), back to back up to the end, each
/// with a payload matching its CRC. On a mismatch, returns the offset
/// of the first bad frame.
fn check_frames(bytes: &[u8], frames: &[(u64, u64)]) -> Result<(), u64> {
    let mut pos = WAL_MAGIC.len();
    for &(_, offset) in frames {
        let bad = Err(offset);
        if offset != pos as u64 {
            return bad;
        }
        match frame_at(bytes, pos) {
            Some((payload, crc, end)) if crc32(payload) == crc => pos = end,
            _ => return bad,
        }
    }
    if pos == bytes.len() {
        Ok(())
    } else {
        Err(pos as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The plain bytewise CRC loop: the reference the slice-by-8
    /// version must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = u32::MAX;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ u32::MAX
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

        #[test]
        fn slice_by_8_matches_the_bytewise_loop(
            bytes in proptest::collection::vec(any::<u8>(), 0..4097),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
            // Every alignment of the 8-byte steps, and every tail length.
            for skip in 1..9.min(bytes.len() + 1) {
                let rest = &bytes[skip..];
                prop_assert_eq!(crc32(rest), crc32_bytewise(rest));
            }
        }
    }
}
