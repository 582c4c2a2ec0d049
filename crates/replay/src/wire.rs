//! The one container codec (DESIGN.md §12).
//!
//! Every on-disk artifact reads and writes its bytes here: replay logs
//! (`CHIM`), the fleet journal (`CHFJ`), sweep evidence (`CHEV`) and
//! certified plans (`CHPL`). A container is an envelope — a
//! 4-byte magic and a varint format version ([`Format`]) — followed by
//! frames, each `varint(len) ++ fnv32(body) ++ body` ([`push_frame`]).
//!
//! Decoding goes through the strict sequential [`Reader`]. Its errors are
//! bare causes (`truncated`, `checksum mismatch`, `3 trailing byte(s)`);
//! each container prefixes them with its name and section on the error
//! path only, so a failed decode reads `log chunk 2: checksum mismatch` or
//! `journal entry 4: truncated`, and a successful one formats nothing.

use std::path::{Path, PathBuf};

/// One container format: its name in errors, its magic, and the single
/// version this build reads and writes.
#[derive(Debug)]
pub struct Format {
    /// Leads every decode error (`log`, `journal`, `evidence`, ...).
    pub name: &'static str,
    /// The 4-byte magic the container starts with.
    pub magic: &'static [u8; 4],
    /// The format version written after the magic.
    pub version: u64,
}

impl Format {
    /// Start an encoding: the magic, then the version.
    pub fn start(&self) -> Vec<u8> {
        let mut out = self.magic.to_vec();
        push_varint(&mut out, self.version);
        out
    }

    /// Check the magic and version of `bytes` and return a reader over
    /// what follows them.
    ///
    /// # Errors
    ///
    /// `<name> magic: ...` or `<name> version: ...` on a short buffer, a
    /// foreign magic, or any version other than [`Format::version`].
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<Reader<'a>, String> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4).map_err(|e| format!("{} magic: {e}", self.name))?;
        if magic != self.magic {
            return Err(format!("{} magic: bad magic", self.name));
        }
        let version = r
            .varint()
            .map_err(|e| format!("{} version: {e}", self.name))?;
        if version != self.version {
            return Err(format!(
                "{} version: unsupported version {version}",
                self.name
            ));
        }
        Ok(r)
    }

    /// Succeed only if `r` has consumed the whole container.
    pub fn finish(&self, r: &Reader) -> Result<(), String> {
        r.finish().map_err(|e| format!("{}: {e}", self.name))
    }
}

/// Strict sequential reader over an untrusted byte buffer.
///
/// Every length comes from the wire and is bounds-checked *before* any
/// arithmetic on the cursor, so attacker-controlled u64 lengths can
/// neither overflow the cursor nor trigger an allocation.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a buffer; the cursor starts at byte 0.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Take exactly `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.remaining() {
            return Err("truncated".into());
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Take one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Decode one LEB128 varint.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err("varint overflow".into());
            }
        }
    }

    /// A varint that must fit in 32 bits (counts, ids).
    #[inline]
    pub fn varint_u32(&mut self) -> Result<u32, String> {
        u32::try_from(self.varint()?).map_err(|_| "u32 overflow".into())
    }

    /// A raw little-endian u32 (frame checksums).
    pub fn u32_raw(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// A raw little-endian u64. Hashes and digests are stored unvarinted:
    /// they are uniformly distributed, so varints would bloat them to 10
    /// bytes.
    pub fn u64_raw(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Skip one frame written by [`push_frame`] *without* verifying its
    /// checksum, returning its body: frame lengths alone delimit a
    /// prefix, which is what lets a log decode resume past a damaged
    /// chunk.
    pub fn skip_frame(&mut self) -> Result<&'a [u8], String> {
        let len = self.varint()?;
        self.take(4)?;
        self.take(usize::try_from(len).map_err(|_| "truncated")?)
    }

    /// Succeed only if every byte has been consumed.
    pub fn finish(&self) -> Result<(), String> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{n} trailing byte(s)")),
        }
    }
}

/// Read one frame written by [`push_frame`], verifying its checksum.
///
/// The declared length is bounded by the bytes actually remaining, so a
/// hostile length fails as truncation instead of an allocation attempt.
pub fn read_frame<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], String> {
    let len = r.varint()?;
    let sum = r.u32_raw()?;
    let body = r.take(usize::try_from(len).map_err(|_| "truncated")?)?;
    if fnv32(body) != sum {
        return Err("checksum mismatch".into());
    }
    Ok(body)
}

/// Read one frame and decode its body with `f`, which must consume the
/// body exactly: bytes `f` leaves unread are an error.
pub fn read_frame_with<'a, T>(
    r: &mut Reader<'a>,
    f: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
) -> Result<T, String> {
    let mut body = Reader::new(read_frame(r)?);
    let value = f(&mut body)?;
    body.finish()?;
    Ok(value)
}

/// Append a length-prefixed, checksummed frame: `varint(len) ++
/// fnv32(body) ++ body`.
pub fn push_frame(out: &mut Vec<u8>, body: &[u8]) {
    push_varint(out, body.len() as u64);
    out.extend_from_slice(&fnv32(body).to_le_bytes());
    out.extend_from_slice(body);
}

/// Append a length-prefixed UTF-8 string.
pub fn push_str(out: &mut Vec<u8>, s: &str) {
    push_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Read a string written by [`push_str`] (capped at 4 KiB — names, not
/// payloads).
pub fn read_str(r: &mut Reader) -> Result<String, String> {
    let len = r.varint()?;
    if len > 4096 {
        return Err(format!("implausible string length {len}"));
    }
    let bytes = r.take(len as usize)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| "invalid utf-8".into())
}

/// LEB128 varint.
pub fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// ZigZag-encode a signed value for varint packing.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// FNV-1a over a byte slice. A single flipped byte always changes the
/// digest: each step `h -> (h ^ b) * p` is injective for fixed `b`, and two
/// streams first differing at one byte leave different states there.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a (32-bit) over a byte slice — the frame checksum. The
/// single-byte-flip guarantee of [`fnv64`] holds mod 2³² too: the prime is
/// odd, so each step `h -> (h ^ b) * p` stays injective on 32-bit states,
/// and a difference introduced at one byte survives every later step.
pub fn fnv32(bytes: &[u8]) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for &b in bytes {
        h = (h ^ b as u32).wrapping_mul(0x0100_0193);
    }
    h
}

/// Atomically replace `path` with `bytes`: write a sibling temp file
/// named after the whole file name (`x.chpl.tmp`, so `x.chev` and
/// `x.chpl` never share one), then rename it over the target, so a
/// process that dies mid-write never leaves a torn container behind.
/// (Nothing is fsynced: surviving power loss is not promised.)
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot rename {} into place: {e}", tmp.display()))
}

/// Read the container at `path` and decode it, prefixing every error with
/// the path. A missing file yields `if_missing` when one is given.
pub fn read_file<T>(
    path: &Path,
    if_missing: Option<T>,
    decode: impl FnOnce(&[u8]) -> Result<T, String>,
) -> Result<T, String> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) => {
            return match if_missing {
                Some(empty) if e.kind() == std::io::ErrorKind::NotFound => Ok(empty),
                _ => Err(format!("cannot read {}: {e}", path.display())),
            }
        }
    };
    decode(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: Format = Format {
        name: "demo",
        magic: b"DEMO",
        version: 3,
    };

    #[test]
    fn varint_round_trips_small_and_large() {
        let mut out = Vec::new();
        for v in [0, 127, 128, u64::MAX] {
            push_varint(&mut out, v);
        }
        assert_eq!(out[0], 0);
        assert_eq!(out[1], 127);
        assert_eq!(out[2] & 0x80, 0x80);
        assert_eq!(out.len(), 1 + 1 + 2 + 10);
        let mut r = Reader::new(&out);
        for v in [0, 127, 128, u64::MAX] {
            assert_eq!(r.varint().unwrap(), v);
        }
        r.finish().unwrap();
        // A varint that never terminates within 64 bits.
        let err = Reader::new(&[0xff; 10]).varint().unwrap_err();
        assert_eq!(err, "varint overflow");
    }

    #[test]
    fn zigzag_maps_small_magnitudes_small_and_inverts() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        for v in [0i64, 1, -1, 42, -42, i64::MAX / 2, i64::MIN / 2] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn frames_round_trip_and_detect_damage() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"hello");
        push_frame(&mut buf, b"");
        let mut r = Reader::new(&buf);
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        r.finish().unwrap();

        // Flip a body byte: the checksum catches it.
        let mut bad = buf.clone();
        bad[5] ^= 0x40;
        assert_eq!(
            read_frame(&mut Reader::new(&bad)).unwrap_err(),
            "checksum mismatch"
        );
        // ...but a skip delimits the frame by its length alone.
        assert_eq!(Reader::new(&bad).skip_frame().unwrap().len(), 5);

        // Truncate inside the first body.
        let err = read_frame(&mut Reader::new(&buf[..3])).unwrap_err();
        assert_eq!(err, "truncated");
    }

    #[test]
    fn hostile_lengths_fail_without_allocating() {
        // The length varint says "u64::MAX / 2 bytes follow".
        let mut buf = Vec::new();
        push_varint(&mut buf, u64::MAX / 2);
        buf.extend_from_slice(&[0u8; 8]);
        assert_eq!(read_frame(&mut Reader::new(&buf)).unwrap_err(), "truncated");
        assert_eq!(Reader::new(&buf).skip_frame().unwrap_err(), "truncated");
        let mut r = Reader::new(&buf);
        r.varint().unwrap();
        assert!(r.take(usize::MAX).is_err());
    }

    #[test]
    fn strings_round_trip_and_reject_garbage() {
        let mut buf = Vec::new();
        push_str(&mut buf, "pfscan");
        assert_eq!(read_str(&mut Reader::new(&buf)).unwrap(), "pfscan");

        let mut long = Vec::new();
        push_varint(&mut long, 1 << 20);
        assert!(read_str(&mut Reader::new(&long))
            .unwrap_err()
            .contains("implausible"));
        let bad_utf8 = [2, 0xc3, 0x28];
        assert_eq!(
            read_str(&mut Reader::new(&bad_utf8)).unwrap_err(),
            "invalid utf-8"
        );
    }

    #[test]
    fn envelope_round_trips_and_names_the_container() {
        let mut bytes = DEMO.start();
        bytes.push(9);
        let mut r = DEMO.open(&bytes).unwrap();
        assert_eq!(r.u8().unwrap(), 9);
        r.finish().unwrap();

        assert_eq!(DEMO.open(b"DEM").unwrap_err(), "demo magic: truncated");
        assert_eq!(DEMO.open(b"NOPE\x03").unwrap_err(), "demo magic: bad magic");
        assert_eq!(DEMO.open(b"DEMO").unwrap_err(), "demo version: truncated");
        assert_eq!(
            DEMO.open(b"DEMO\x02").unwrap_err(),
            "demo version: unsupported version 2"
        );
    }

    #[test]
    fn atomic_writes_of_one_stem_use_their_own_temp_files() {
        let dir = std::env::temp_dir().join(format!("wire-atomic-{}", std::process::id()));
        // Whatever sits at the stem's `.tmp` belongs to someone else.
        std::fs::create_dir_all(dir.join("x.tmp")).unwrap();
        for name in ["x.chev", "x.chpl"] {
            write_atomic(&dir.join(name), name.as_bytes()).unwrap();
            assert_eq!(std::fs::read(dir.join(name)).unwrap(), name.as_bytes());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
