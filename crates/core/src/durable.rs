//! Crash-consistent file persistence: checksummed atomic writes, verified
//! reads, and quarantine of corrupt files.
//!
//! Every durable artifact of the service layer — schedule-cache dumps, shard
//! partial reports — goes through this module so that a torn write (a killed
//! process, a full disk, a copy truncated mid-flight) is *detected* on the
//! next read instead of silently feeding garbage into a merge:
//!
//! * [`write_atomic`] appends an FNV-1a checksum trailer and lands the file
//!   with a same-directory temp file + `rename`, so readers only ever observe
//!   either the old complete file or the new complete file.
//! * [`read_verified`] classifies a file as missing, checksum-clean, legacy
//!   (no trailer — files written before checksumming existed stay readable),
//!   or corrupt (trailer present but the body does not hash to it, or the
//!   trailer itself is mangled — the torn-write signature).
//!   [`read_checksummed`] also returns a clean file's checksum, the one
//!   [`write_atomic`] returned when it wrote the body, so a caller can tell
//!   whether a file still holds a body it read or wrote before.
//! * [`quarantine`] moves a corrupt file aside to `<path>.corrupt-<n>`
//!   (never deleting evidence), bumps the process-wide
//!   `cache.corrupt_quarantined` counter and logs a structured event, so the
//!   caller can rebuild from scratch while the operator still has the bytes.
//!
//! The trailer line starts with `#`, which is invalid JSON — a reader that
//! does not know about checksums fails loudly on a sealed file instead of
//! silently parsing half of it.

use crate::json::Json;
use crate::telemetry::{self, log_event, LogLevel};
use std::io;
use std::path::{Path, PathBuf};

/// The checksum trailer marker: a sealed file ends with a line
/// `#themis-fnv1a:<16 hex digits>:<body length in bytes>`.
pub const TRAILER_PREFIX: &str = "#themis-fnv1a:";

/// 64-bit FNV-1a over `bytes` (the same hash the topology and schedule
/// fingerprints use).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// `body` with the checksum trailer appended (a trailing newline is added to
/// the body if missing, so the trailer always sits on its own line).
pub fn seal(body: &str) -> String {
    seal_checksummed(body).0
}

/// [`seal`], plus the checksum the trailer records.
fn seal_checksummed(body: &str) -> (String, u64) {
    let mut sealed = String::with_capacity(body.len() + TRAILER_PREFIX.len() + 32);
    sealed.push_str(body);
    if !sealed.ends_with('\n') {
        sealed.push('\n');
    }
    let hash = fnv1a(sealed.as_bytes());
    let len = sealed.len();
    sealed.push_str(&format!("{TRAILER_PREFIX}{hash:016x}:{len}\n"));
    (sealed, hash)
}

/// The classification of a [`read_verified`] file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifiedRead {
    /// The file does not exist — a cold start, not an error.
    Missing,
    /// The trailer checksum matched; the payload is the body without the
    /// trailer line.
    Clean(String),
    /// No trailer — a file written before checksumming existed. The payload
    /// is the whole file; callers decide whether to accept it (the default)
    /// or insist on sealed files.
    Legacy(String),
    /// The trailer is present but wrong — a torn or tampered file.
    Corrupt {
        /// What failed to verify.
        reason: String,
    },
}

/// Seals `body` with a checksum trailer and writes it to `path` atomically:
/// a temp file in the same directory (pid-suffixed, so concurrent writers
/// never collide) followed by a `rename`. Readers observe either the old
/// complete file or the new complete file, never a torn one. Returns the
/// checksum the trailer records, which [`read_checksummed`] reports for the
/// file for as long as it holds this body.
///
/// # Errors
///
/// Any IO error creating, writing or renaming the temp file.
pub fn write_atomic(path: &Path, body: &str) -> io::Result<u64> {
    let file_name = path
        .file_name()
        .map(|name| name.to_string_lossy().into_owned())
        .unwrap_or_else(|| "durable".to_string());
    let tmp = path.with_file_name(format!("{file_name}.tmp.{}", std::process::id()));
    let (sealed, checksum) = seal_checksummed(body);
    std::fs::write(&tmp, sealed)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(checksum),
        Err(err) => {
            let _ = std::fs::remove_file(&tmp);
            Err(err)
        }
    }
}

/// Reads `path` and verifies its checksum trailer. Missing files are
/// [`VerifiedRead::Missing`]; files without a trailer are
/// [`VerifiedRead::Legacy`]; a mismatched or mangled trailer is
/// [`VerifiedRead::Corrupt`].
///
/// # Errors
///
/// Any IO error other than the file not existing (which maps to `Missing`).
pub fn read_verified(path: &Path) -> io::Result<VerifiedRead> {
    Ok(read_checksummed(path)?.0)
}

/// [`read_verified`], plus the checksum of a [`VerifiedRead::Clean`] file:
/// the FNV-1a hash its trailer records, as [`write_atomic`] returned it. A
/// caller that kept the checksum of a body can so tell whether a file still
/// holds that body without hashing it a second time. The checksum is `None`
/// for every other classification.
///
/// # Errors
///
/// As [`read_verified`].
pub fn read_checksummed(path: &Path) -> io::Result<(VerifiedRead, Option<u64>)> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) if err.kind() == io::ErrorKind::NotFound => {
            return Ok((VerifiedRead::Missing, None))
        }
        Err(err) => return Err(err),
    };
    Ok(verify_checksummed(&text))
}

/// The pure verification half of [`read_verified`], usable on bytes already
/// in memory.
pub fn verify(text: &str) -> VerifiedRead {
    verify_checksummed(text).0
}

/// [`verify`], plus the checksum of a clean body.
fn verify_checksummed(text: &str) -> (VerifiedRead, Option<u64>) {
    let corrupt = |reason: String| (VerifiedRead::Corrupt { reason }, None);
    // The trailer is the last non-empty line; anything before it is the body.
    let trimmed = text.trim_end_matches('\n');
    let (body_end, last_line) = match trimmed.rfind('\n') {
        Some(at) => (at + 1, &trimmed[at + 1..]),
        None => (0, trimmed),
    };
    let Some(trailer) = last_line.strip_prefix(TRAILER_PREFIX) else {
        // A trailer marker jammed mid-line is the other torn-write signature:
        // the truncation ate the body's final newline, gluing the trailer to a
        // partial line. Never mistake that for a legacy (pre-checksum) file.
        if last_line.contains(TRAILER_PREFIX) {
            return corrupt("checksum trailer glued to a truncated body".to_string());
        }
        return (VerifiedRead::Legacy(text.to_string()), None);
    };
    let mut parts = trailer.split(':');
    let (Some(hash_hex), Some(len_text), None) = (parts.next(), parts.next(), parts.next()) else {
        return corrupt("malformed checksum trailer".to_string());
    };
    let (Ok(expected_hash), Ok(expected_len)) =
        (u64::from_str_radix(hash_hex, 16), len_text.parse::<usize>())
    else {
        return corrupt("unparseable checksum trailer".to_string());
    };
    let body = &text[..body_end];
    if body.len() != expected_len {
        return corrupt(format!(
            "length mismatch: trailer says {expected_len} bytes, body has {}",
            body.len()
        ));
    }
    let actual = fnv1a(body.as_bytes());
    if actual != expected_hash {
        return corrupt(format!(
            "checksum mismatch: trailer {expected_hash:016x}, body {actual:016x}"
        ));
    }
    (VerifiedRead::Clean(body.to_string()), Some(actual))
}

/// Moves a corrupt file aside to the first free `<path>.corrupt-<n>`,
/// bumps the process-wide `cache.corrupt_quarantined` counter and logs a
/// structured `durable.quarantined` event. Returns the quarantine path.
///
/// # Errors
///
/// Any IO error renaming the file (including it having vanished — losing the
/// race to another process's quarantine).
pub fn quarantine(path: &Path, reason: &str) -> io::Result<PathBuf> {
    let target = (0..)
        .map(|n| {
            let mut name = path.as_os_str().to_owned();
            name.push(format!(".corrupt-{n}"));
            PathBuf::from(name)
        })
        .find(|candidate| !candidate.exists())
        .expect("an unbounded counter always finds a free slot");
    std::fs::rename(path, &target)?;
    telemetry::global()
        .counter("cache.corrupt_quarantined")
        .inc();
    log_event(
        LogLevel::Error,
        "durable.quarantined",
        &[
            ("path", Json::Str(path.display().to_string())),
            ("quarantined_to", Json::Str(target.display().to_string())),
            ("reason", Json::Str(reason.to_string())),
        ],
    );
    Ok(target)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "themis-durable-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }

        fn file(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn sealed_files_round_trip_clean() {
        let dir = TempDir::new("roundtrip");
        let path = dir.file("data.json");
        let checksum = write_atomic(&path, "{\"x\":1}").unwrap();
        match read_verified(&path).unwrap() {
            VerifiedRead::Clean(body) => assert_eq!(body, "{\"x\":1}\n"),
            other => panic!("expected Clean, got {other:?}"),
        }
        // The checksum the write returned is the one the read reports: the
        // hash of the body, newline included.
        assert_eq!(checksum, fnv1a(b"{\"x\":1}\n"));
        assert_eq!(read_checksummed(&path).unwrap().1, Some(checksum));
        // Only a clean file has one.
        std::fs::write(&path, "{\"x\":1}\n").unwrap();
        assert_eq!(read_checksummed(&path).unwrap().1, None);
        assert_eq!(
            read_checksummed(&dir.file("nope.json")).unwrap(),
            (VerifiedRead::Missing, None)
        );
    }

    #[test]
    fn missing_files_are_missing_not_errors() {
        let dir = TempDir::new("missing");
        assert_eq!(
            read_verified(&dir.file("nope.json")).unwrap(),
            VerifiedRead::Missing
        );
    }

    #[test]
    fn legacy_files_without_a_trailer_are_accepted() {
        let dir = TempDir::new("legacy");
        let path = dir.file("old.json");
        std::fs::write(&path, "{\"x\":1}\n").unwrap();
        match read_verified(&path).unwrap() {
            VerifiedRead::Legacy(body) => assert_eq!(body, "{\"x\":1}\n"),
            other => panic!("expected Legacy, got {other:?}"),
        }
    }

    #[test]
    fn torn_writes_are_detected() {
        let dir = TempDir::new("torn");
        let path = dir.file("data.json");
        write_atomic(&path, "{\"x\":1,\"y\":2}").unwrap();
        // Truncate the body but keep the trailer: the torn-write signature.
        let sealed = std::fs::read_to_string(&path).unwrap();
        let trailer_at = sealed.rfind(TRAILER_PREFIX).unwrap();
        let torn = format!("{}{}", &sealed[..trailer_at / 2], &sealed[trailer_at..]);
        std::fs::write(&path, torn).unwrap();
        assert!(matches!(
            read_checksummed(&path).unwrap(),
            (VerifiedRead::Corrupt { .. }, None)
        ));
    }

    #[test]
    fn flipped_bytes_are_detected() {
        let dir = TempDir::new("flip");
        let path = dir.file("data.json");
        write_atomic(&path, "{\"x\":1}").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[2] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_verified(&path).unwrap(),
            VerifiedRead::Corrupt { .. }
        ));
    }

    #[test]
    fn mangled_trailers_are_corrupt() {
        assert!(matches!(
            verify(&format!("body\n{TRAILER_PREFIX}nothex:zzz\n")),
            VerifiedRead::Corrupt { .. }
        ));
        assert!(matches!(
            verify(&format!("body\n{TRAILER_PREFIX}deadbeef\n")),
            VerifiedRead::Corrupt { .. }
        ));
    }

    #[test]
    fn quarantine_moves_the_file_aside_and_counts() {
        let _counters = telemetry::global_counters_lock();
        let dir = TempDir::new("quarantine");
        let path = dir.file("bad.json");
        std::fs::write(&path, "garbage").unwrap();
        let before = telemetry::global()
            .counter("cache.corrupt_quarantined")
            .get();
        let first = quarantine(&path, "test").unwrap();
        assert!(first.to_string_lossy().ends_with("bad.json.corrupt-0"));
        assert!(!path.exists());
        assert!(first.exists());
        // A second corruption of the same path lands in the next free slot.
        std::fs::write(&path, "more garbage").unwrap();
        let second = quarantine(&path, "test").unwrap();
        assert!(second.to_string_lossy().ends_with("bad.json.corrupt-1"));
        assert_eq!(
            telemetry::global()
                .counter("cache.corrupt_quarantined")
                .get(),
            before + 2
        );
    }

    #[test]
    fn the_trailer_is_invalid_json() {
        // A checksum-unaware `Json::parse` must fail loudly on sealed files
        // rather than parse half of one.
        let sealed = seal("{\"x\":1}");
        assert!(Json::parse(&sealed).is_err());
    }
}
