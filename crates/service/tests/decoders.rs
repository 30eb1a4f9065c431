//! The decoders of bytes read back from disk are total: on truncated
//! or garbled snapshot bodies, WAL payloads and whole WAL files they
//! return an error (or, for a torn tail, a shorter log) and never
//! panic. The inputs start from the pinned renderings in `golden/`.

use mlfs_service::durability::wal::{crc32, read_wal, WalError, WalRecord, WAL_MAGIC};
use mlfs_service::ServiceSnapshot;
use proptest::prelude::*;

const SNAPSHOT: &str = include_str!("golden/service_snapshot.json");
const RECORD: &str = include_str!("golden/wal_record.json");

/// `text` with the byte at `frac` of its length replaced by `byte`,
/// read back as a reader would see it.
fn garble(text: &str, frac: f64, byte: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = ((bytes.len() as f64 * frac) as usize).min(bytes.len() - 1);
    bytes[at] = byte;
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A WAL file holding three copies of the pinned record.
fn wal_bytes() -> Vec<u8> {
    let mut out = WAL_MAGIC.to_vec();
    for _ in 0..3 {
        out.extend_from_slice(&(RECORD.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(RECORD.as_bytes()).to_le_bytes());
        out.extend_from_slice(RECORD.as_bytes());
    }
    out
}

#[test]
fn the_pinned_bodies_decode() {
    serde_json::from_str::<ServiceSnapshot>(SNAPSHOT).expect("snapshot decodes");
    serde_json::from_str::<WalRecord>(RECORD).expect("record decodes");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    /// Every strict prefix of a body is an error.
    #[test]
    fn truncated_bodies_are_errors(frac in 0.0f64..1.0) {
        for body in [SNAPSHOT, RECORD] {
            let cut = (body.len() as f64 * frac) as usize;
            prop_assert!(serde_json::from_str::<ServiceSnapshot>(&body[..cut]).is_err());
            prop_assert!(serde_json::from_str::<WalRecord>(&body[..cut]).is_err());
        }
    }

    /// A garbled byte anywhere never panics the decoder (a changed
    /// digit can still decode, so an error is not required).
    #[test]
    fn garbled_bodies_never_panic(frac in 0.0f64..1.0, byte in any::<u8>()) {
        let _ = serde_json::from_str::<ServiceSnapshot>(&garble(SNAPSHOT, frac, byte));
        let _ = serde_json::from_str::<WalRecord>(&garble(RECORD, frac, byte));
    }

    /// A WAL file cut short or with a byte changed scans to a prefix
    /// of its records, or to a typed error; never a panic.
    #[test]
    fn damaged_wal_files_scan_to_a_prefix_or_an_error(
        frac in 0.0f64..1.0,
        byte in any::<u8>(),
        truncate in any::<bool>(),
    ) {
        let mut bytes = wal_bytes();
        let at = ((bytes.len() as f64 * frac) as usize).min(bytes.len() - 1);
        if truncate {
            bytes.truncate(at);
        } else {
            bytes[at] ^= byte | 1;
        }
        let path = std::env::temp_dir().join(format!("mlfs-decoders-{}.log", std::process::id()));
        std::fs::write(&path, &bytes).expect("scratch wal");
        match read_wal(&path) {
            Ok(scan) => prop_assert!(scan.records.len() < 3),
            Err(WalError::Corrupt { .. } | WalError::BadMagic) => {}
            Err(WalError::Io(e)) => panic!("unexpected io error: {e}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
