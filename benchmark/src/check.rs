//! Output checks: length-and-hash fingerprints of files and HTTP bodies.
//!
//! A run of `gen-full` writes 1.6 GB per iteration and every byte of it is
//! compared against the single-thread reference, so the hash has to keep up
//! with the page cache. This is FNV-1a's xor-then-multiply step applied to
//! little-endian 64-bit words (the tail byte-wise): each step is a bijection
//! of the state, so any two inputs of equal length that differ in one word
//! hash differently, and it runs at memory speed where the byte-wise
//! `gmark::store::paged::Fnv64` manages about 1 GB/s.

use std::fs::File;
use std::io::Read;
use std::path::Path;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// What two outputs must share to count as byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Length in bytes.
    pub len: u64,
    /// Word-wise FNV-1a of the content.
    pub hash: u64,
}

/// A running word-wise FNV-1a hash. Feed it chunks of any size; the result
/// depends only on the concatenated bytes.
#[derive(Debug, Clone)]
pub struct Hasher {
    state: u64,
    len: u64,
    /// Bytes of an incomplete trailing word, carried to the next chunk.
    carry: [u8; 8],
    carried: usize,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher {
            state: FNV_OFFSET,
            len: 0,
            carry: [0; 8],
            carried: 0,
        }
    }
}

impl Hasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.state = (self.state ^ w).wrapping_mul(FNV_PRIME);
    }

    /// Absorbs the next chunk.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.carried > 0 {
            let take = (8 - self.carried).min(bytes.len());
            self.carry[self.carried..self.carried + take].copy_from_slice(&bytes[..take]);
            self.carried += take;
            bytes = &bytes[take..];
            if self.carried < 8 {
                return;
            }
            self.word(u64::from_le_bytes(self.carry));
            self.carried = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        self.carry[..tail.len()].copy_from_slice(tail);
        self.carried = tail.len();
    }

    /// The fingerprint of everything absorbed so far.
    pub fn finish(&self) -> Fingerprint {
        let mut state = self.state;
        for &b in &self.carry[..self.carried] {
            state = (state ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        Fingerprint {
            len: self.len,
            hash: state,
        }
    }
}

/// Fingerprint of an in-memory body.
pub fn fingerprint(bytes: &[u8]) -> Fingerprint {
    let mut h = Hasher::default();
    h.update(bytes);
    h.finish()
}

/// Fingerprint of a file, read in 1 MiB chunks.
pub fn fingerprint_file(path: &Path) -> Result<Fingerprint, String> {
    let mut file = File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    let mut buf = vec![0u8; 1 << 20];
    let mut h = Hasher::default();
    loop {
        let n = file
            .read(&mut buf)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        if n == 0 {
            return Ok(h.finish());
        }
        h.update(&buf[..n]);
    }
}

/// Rewrites every `"seconds":<number>` of a run summary to `"seconds":0`.
/// Stage wall times are the only content of `summary.json` that differs
/// between two builds of one plan, so summaries are compared through this.
pub fn without_seconds(json: &[u8]) -> Vec<u8> {
    const KEY: &[u8] = b"\"seconds\":";
    let mut out = Vec::with_capacity(json.len());
    let mut i = 0;
    while i < json.len() {
        if json[i..].starts_with(KEY) {
            out.extend_from_slice(KEY);
            out.push(b'0');
            i += KEY.len();
            while i < json.len()
                && matches!(json[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                i += 1;
            }
        } else {
            out.push(json[i]);
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_never_changes_the_fingerprint() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        let whole = fingerprint(&data);
        assert_eq!(whole.len, 1000);
        for split in [1usize, 3, 8, 13, 64, 999] {
            let mut h = Hasher::default();
            for chunk in data.chunks(split) {
                h.update(chunk);
            }
            assert_eq!(h.finish(), whole, "chunks of {split}");
        }
    }

    #[test]
    fn any_changed_byte_changes_the_hash() {
        let data = vec![0u8; 100];
        let base = fingerprint(&data);
        for i in 0..100 {
            let mut other = data.clone();
            other[i] = 1;
            assert_ne!(fingerprint(&other).hash, base.hash, "byte {i}");
        }
        assert_ne!(fingerprint(&data[..99]), base);
    }

    #[test]
    fn seconds_are_neutralized_and_nothing_else() {
        let a = br#"{"seed":7,"graph":{"edges":12,"seconds":0.0123},"workload":{"seconds":1e-5,"n":3}}"#;
        let b = br#"{"seed":7,"graph":{"edges":12,"seconds":9.5},"workload":{"seconds":2,"n":3}}"#;
        assert_eq!(without_seconds(a), without_seconds(b));
        assert_eq!(
            String::from_utf8(without_seconds(a)).unwrap(),
            r#"{"seed":7,"graph":{"edges":12,"seconds":0},"workload":{"seconds":0,"n":3}}"#
        );
        let c = br#"{"seed":8,"graph":{"edges":12,"seconds":9.5},"workload":{"seconds":2,"n":3}}"#;
        assert_ne!(without_seconds(a), without_seconds(c));
    }
}
