//! One hostile-input suite for every on-disk container codec.
//!
//! The workspace's four containers — replay logs, the fleet journal,
//! sweep evidence and certified plans — share one envelope (a
//! 4-byte magic, then a one-byte varint version) and one error rule: every
//! decode error starts with the container's name. Each container's own
//! tests call [`corruption_suite`] with its [`Codec`], one pristine value
//! and a generator of valid values. The suite checks that:
//!
//! * the pristine value, and every generated one, decodes from its own
//!   encoding to an equal value that re-encodes to the same bytes;
//! * every strict prefix of the pristine encoding, and the encoding plus
//!   one extra byte, fail to decode;
//! * XOR with `0x01` and with `0xFF` at every offset fails to decode;
//! * all 8 single-bit flips of the version byte fail to decode;
//! * each of those errors starts with the container's name;
//! * random byte soup never panics the decoder;
//! * seeded overwrite/truncate corruption of generated valid encodings
//!   never panics, and any `Ok` result re-encodes to a fixpoint.
//!
//! A decoder panic fails the calling test, either directly or through the
//! property harness (which shrinks and prints a replayable seed).

use crate::prop::{self, Gen};
use std::fmt::Debug;

/// A container codec under test.
pub struct Codec<T> {
    /// The name every decode error must start with (`log`, `journal`, ...).
    pub name: &'static str,
    /// Decode untrusted bytes.
    pub decode: fn(&[u8]) -> Result<T, String>,
    /// Encode a value.
    pub encode: fn(&T) -> Vec<u8>,
}

impl<T: PartialEq> Codec<T> {
    /// Encode `v`; the bytes must decode to a value equal to `v` that
    /// re-encodes to the same bytes.
    fn round_trip(&self, v: &T) -> Result<Vec<u8>, String> {
        let bytes = (self.encode)(v);
        let back = (self.decode)(&bytes).map_err(|e| format!("own encoding rejected: {e}"))?;
        if back != *v || (self.encode)(&back) != bytes {
            return Err("decode(encode(v)) does not round-trip".into());
        }
        Ok(bytes)
    }

    /// Decode `bytes`, requiring that a failure names the container.
    fn decode_named(&self, bytes: &[u8]) -> Result<Option<T>, String> {
        match (self.decode)(bytes) {
            Ok(v) => Ok(Some(v)),
            Err(e) if e.starts_with(self.name) => Ok(None),
            Err(e) => Err(format!("error does not start with '{}': {e}", self.name)),
        }
    }

    /// Decode `bytes`; a value that comes back must round-trip.
    fn survives(&self, bytes: &[u8]) -> Result<(), String> {
        match self.decode_named(bytes)? {
            Some(v) => self.round_trip(&v).map(drop),
            None => Ok(()),
        }
    }

    /// Decode `bytes`, which must fail with an error naming the container.
    fn must_reject(&self, bytes: &[u8], what: &str) {
        match self.decode_named(bytes) {
            Ok(None) => {}
            Ok(Some(_)) => panic!("{}: {what} decoded Ok", self.name),
            Err(e) => panic!("{}: {what}: {e}", self.name),
        }
    }
}

/// Run the whole suite on one codec: the deterministic sweeps over the
/// encoding of `pristine`, then random soup, then round trips and seeded
/// corruption of values drawn from `gen`.
pub fn corruption_suite<T>(codec: &Codec<T>, pristine: &T, gen: Gen<T>)
where
    T: Clone + Debug + PartialEq + 'static,
{
    let name = codec.name;
    let bytes = codec
        .round_trip(pristine)
        .unwrap_or_else(|e| panic!("{name}: pristine value: {e}"));
    for k in 0..bytes.len() {
        codec.must_reject(&bytes[..k], &format!("truncation to {k} byte(s)"));
    }
    let mut longer = bytes.clone();
    longer.push(0);
    codec.must_reject(&longer, "one trailing byte");
    for mask in [0x01u8, 0xFF] {
        for i in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[i] ^= mask;
            codec.must_reject(&evil, &format!("byte {i} flipped with {mask:#04x}"));
        }
    }
    assert!(
        bytes.len() > 4 && bytes[4] < 0x80,
        "{name}: expected a one-byte version varint at offset 4"
    );
    for bit in 0..8 {
        let mut evil = bytes.clone();
        evil[4] ^= 1 << bit;
        codec.must_reject(&evil, &format!("version byte with bit {bit} flipped"));
    }

    let soup = prop::vec_of(prop::any_u8(), 0..256);
    prop::check(
        &format!("{name}_random_soup_never_panics"),
        &soup,
        |bytes| codec.survives(bytes),
    );

    let encode = codec.encode;
    let cases = gen.flat_map(move |v| {
        let bytes = encode(&v);
        Gen::new(move |s| {
            let mut b = bytes.clone();
            for _ in 0..s.int(1usize..5) {
                let i = s.index(b.len());
                b[i] = s.int(0u32..256) as u8;
            }
            if s.bool() {
                b.truncate(s.index(b.len() + 1));
            }
            (v.clone(), b)
        })
    });
    prop::check(
        &format!("{name}_generated_values_round_trip_and_survive_corruption"),
        &cases,
        |(v, corrupted)| {
            codec.round_trip(v)?;
            codec.survives(corrupted)
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy container: `TOY1`, version 1, then one checksum byte over a
    /// one-byte payload.
    fn decode(b: &[u8]) -> Result<u8, String> {
        match b {
            [b'T', b'O', b'Y', b'1', 1, v, sum] if *sum == v.wrapping_mul(7) ^ 0x5a => Ok(*v),
            _ => Err("toy: rejected".into()),
        }
    }

    fn encode(v: &u8) -> Vec<u8> {
        vec![b'T', b'O', b'Y', b'1', 1, *v, v.wrapping_mul(7) ^ 0x5a]
    }

    const TOY: Codec<u8> = Codec {
        name: "toy",
        decode,
        encode,
    };

    #[test]
    fn a_strict_codec_passes() {
        corruption_suite(&TOY, &9, prop::any_u8());
    }

    #[test]
    #[should_panic(expected = "does not start with 'toy'")]
    fn an_unnamed_error_fails() {
        let unnamed = Codec {
            name: "toy",
            decode: |b| decode(b).map_err(|_| "rejected".to_string()),
            encode,
        };
        corruption_suite(&unnamed, &9, prop::any_u8());
    }

    #[test]
    #[should_panic(expected = "one trailing byte decoded Ok")]
    fn a_lenient_codec_fails() {
        let lenient = Codec {
            name: "toy",
            decode: |b| decode(&b[..b.len().min(7)]),
            encode,
        };
        corruption_suite(&lenient, &9, prop::any_u8());
    }
}
