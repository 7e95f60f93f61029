//! Compression codecs (§2.8: "compress the bucket and write it to disk";
//! "what compression algorithms to employ" is one of the storage manager's
//! optimization questions, measured by experiment E3).
//!
//! All encodings are little-endian and self-delimiting. Codecs:
//!
//! * [`Codec::Raw`] — no compression (baseline).
//! * [`Codec::Rle`] — run-length over 8-byte words; wins on constant or
//!   piecewise-constant science data (calibration frames, masks).
//! * [`Codec::DeltaVarint`] — zig-zag delta + LEB128 varint for integers;
//!   wins on sorted/near-sorted sequences such as dimension offsets.
//! * [`Codec::XorFloat`] — Gorilla-style XOR of consecutive float bit
//!   patterns with leading/trailing-zero trimming; wins on smooth fields.

use scidb_core::error::{Error, Result};

/// A compression codec identifier, stored in bucket headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// No compression.
    Raw,
    /// Run-length encoding over 8-byte words.
    Rle,
    /// Zig-zag delta + varint (integers).
    DeltaVarint,
    /// XOR float compression.
    XorFloat,
}

impl Codec {
    /// Stable on-disk tag.
    pub fn tag(self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::Rle => 1,
            Codec::DeltaVarint => 2,
            Codec::XorFloat => 3,
        }
    }

    /// Parses an on-disk tag.
    pub fn from_tag(tag: u8) -> Result<Codec> {
        Ok(match tag {
            0 => Codec::Raw,
            1 => Codec::Rle,
            2 => Codec::DeltaVarint,
            3 => Codec::XorFloat,
            t => return Err(Error::storage(format!("unknown codec tag {t}"))),
        })
    }

    /// All codecs, for benchmarking sweeps.
    pub fn all() -> [Codec; 4] {
        [Codec::Raw, Codec::Rle, Codec::DeltaVarint, Codec::XorFloat]
    }
}

// ---- varint primitives ---------------------------------------------------

/// Appends a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint, advancing `pos`.
pub fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data
            .get(*pos)
            .ok_or_else(|| Error::storage("varint truncated"))?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(Error::storage("varint overflow"));
        }
    }
}

/// Zig-zag encodes a signed value.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Zig-zag decodes.
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---- i64 columns -----------------------------------------------------------

/// Encodes an `i64` slice with the given codec.
pub fn encode_i64s(vals: &[i64], codec: Codec) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    put_varint(&mut out, vals.len() as u64);
    match codec {
        Codec::Raw => {
            for v in vals {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Codec::Rle => {
            let mut i = 0;
            while i < vals.len() {
                let v = vals[i];
                let mut run = 1usize;
                while i + run < vals.len() && vals[i + run] == v {
                    run += 1;
                }
                put_varint(&mut out, run as u64);
                out.extend_from_slice(&v.to_le_bytes());
                i += run;
            }
        }
        Codec::DeltaVarint => {
            let mut prev = 0i64;
            for &v in vals {
                put_varint(&mut out, zigzag(v.wrapping_sub(prev)));
                prev = v;
            }
        }
        Codec::XorFloat => {
            return Err(Error::storage("XorFloat cannot encode integers"));
        }
    }
    Ok(out)
}

/// Decodes an `i64` column.
pub fn decode_i64s(data: &[u8], codec: Codec) -> Result<Vec<i64>> {
    let mut pos = 0usize;
    let n = get_varint(data, &mut pos)? as usize;
    // A corrupted count must not drive allocation. Outside RLE every
    // element needs at least one input byte, so a count beyond the payload
    // is corruption; an RLE run holds any number of elements in nine bytes,
    // so there only the reservation is bounded and the runs grow it.
    if codec != Codec::Rle && n > data.len() {
        return Err(Error::storage(format!(
            "column count {n} exceeds payload of {} bytes",
            data.len()
        )));
    }
    let mut out = Vec::with_capacity(n.min(data.len()));
    match codec {
        Codec::Raw => {
            for _ in 0..n {
                out.push(read_i64(data, &mut pos)?);
            }
        }
        Codec::Rle => {
            while out.len() < n {
                let run = get_varint(data, &mut pos)? as usize;
                let v = read_i64(data, &mut pos)?;
                if run > n - out.len() {
                    return Err(Error::storage("RLE run overflows column"));
                }
                out.extend(std::iter::repeat_n(v, run));
            }
        }
        Codec::DeltaVarint => {
            let mut prev = 0i64;
            for _ in 0..n {
                prev = prev.wrapping_add(unzigzag(get_varint(data, &mut pos)?));
                out.push(prev);
            }
        }
        Codec::XorFloat => {
            return Err(Error::storage("XorFloat cannot decode integers"));
        }
    }
    Ok(out)
}

fn read_i64(data: &[u8], pos: &mut usize) -> Result<i64> {
    let bytes: [u8; 8] = data
        .get(*pos..*pos + 8)
        .and_then(|b| b.try_into().ok())
        .ok_or_else(|| Error::storage("i64 truncated"))?;
    *pos += 8;
    Ok(i64::from_le_bytes(bytes))
}

// ---- f64 columns -----------------------------------------------------------

/// Encodes an `f64` slice with the given codec.
pub fn encode_f64s(vals: &[f64], codec: Codec) -> Result<Vec<u8>> {
    match codec {
        Codec::Raw | Codec::Rle => {
            let bits: Vec<i64> = vals.iter().map(|v| v.to_bits() as i64).collect();
            encode_i64s(&bits, codec)
        }
        Codec::DeltaVarint => Err(Error::storage("DeltaVarint cannot encode floats")),
        Codec::XorFloat => {
            let mut out = Vec::new();
            put_varint(&mut out, vals.len() as u64);
            let mut prev = 0u64;
            for &v in vals {
                let bits = v.to_bits();
                let x = bits ^ prev;
                // Trim trailing zero bytes of the XOR.
                let nz = if x == 0 {
                    0
                } else {
                    8 - (x.trailing_zeros() / 8) as usize
                };
                out.push(nz as u8);
                out.extend_from_slice(&x.to_be_bytes()[..nz]);
                prev = bits;
            }
            Ok(out)
        }
    }
}

/// Decodes an `f64` column.
pub fn decode_f64s(data: &[u8], codec: Codec) -> Result<Vec<f64>> {
    match codec {
        Codec::Raw | Codec::Rle => {
            let bits = decode_i64s(data, codec)?;
            Ok(bits.into_iter().map(|b| f64::from_bits(b as u64)).collect())
        }
        Codec::DeltaVarint => Err(Error::storage("DeltaVarint cannot decode floats")),
        Codec::XorFloat => {
            let mut pos = 0usize;
            let n = get_varint(data, &mut pos)? as usize;
            if n > data.len() {
                return Err(Error::storage(format!(
                    "column count {n} exceeds payload of {} bytes",
                    data.len()
                )));
            }
            let mut out = Vec::with_capacity(n);
            let mut prev = 0u64;
            for _ in 0..n {
                let nz = *data
                    .get(pos)
                    .ok_or_else(|| Error::storage("xor length truncated"))?
                    as usize;
                pos += 1;
                if nz > 8 {
                    return Err(Error::storage("xor length corrupt"));
                }
                let mut be = [0u8; 8];
                be[..nz].copy_from_slice(
                    data.get(pos..pos + nz)
                        .ok_or_else(|| Error::storage("xor payload truncated"))?,
                );
                pos += nz;
                let bits = u64::from_be_bytes(be) ^ prev;
                out.push(f64::from_bits(bits));
                prev = bits;
            }
            Ok(out)
        }
    }
}

// ---- byte payloads (strings, bitmaps) ---------------------------------------

/// Encodes raw bytes (length-prefixed; RLE optionally applied bytewise).
pub fn encode_bytes(data: &[u8], codec: Codec) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    put_varint(&mut out, data.len() as u64);
    match codec {
        Codec::Raw | Codec::DeltaVarint | Codec::XorFloat => out.extend_from_slice(data),
        Codec::Rle => {
            let mut i = 0;
            while i < data.len() {
                let b = data[i];
                let mut run = 1usize;
                while i + run < data.len() && data[i + run] == b && run < 255 {
                    run += 1;
                }
                out.push(run as u8);
                out.push(b);
                i += run;
            }
        }
    }
    Ok(out)
}

/// Decodes a byte payload.
pub fn decode_bytes(data: &[u8], codec: Codec) -> Result<Vec<u8>> {
    let mut pos = 0usize;
    let n = get_varint(data, &mut pos)? as usize;
    match codec {
        Codec::Raw | Codec::DeltaVarint | Codec::XorFloat => {
            let payload = data
                .get(pos..pos + n)
                .ok_or_else(|| Error::storage("bytes truncated"))?;
            Ok(payload.to_vec())
        }
        Codec::Rle => {
            if n > data.len() * 255 {
                return Err(Error::storage("RLE byte count exceeds plausible payload"));
            }
            let mut out = Vec::with_capacity(n.min(1 << 24));
            while out.len() < n {
                let run = *data
                    .get(pos)
                    .ok_or_else(|| Error::storage("rle truncated"))?
                    as usize;
                let b = *data
                    .get(pos + 1)
                    .ok_or_else(|| Error::storage("rle truncated"))?;
                pos += 2;
                out.extend(std::iter::repeat_n(b, run));
            }
            if out.len() != n {
                return Err(Error::storage("rle length mismatch"));
            }
            Ok(out)
        }
    }
}

/// Picks a sensible default codec per payload kind.
pub fn default_codec_for_ints() -> Codec {
    Codec::DeltaVarint
}

/// Default codec for float payloads.
pub fn default_codec_for_floats() -> Codec {
    Codec::XorFloat
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let vals = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &vals {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &vals {
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn i64_roundtrip_all_codecs() {
        let vals: Vec<i64> = vec![5, 5, 5, 6, 7, 100, -3, -3, 0, i64::MAX, i64::MIN];
        for codec in [Codec::Raw, Codec::Rle, Codec::DeltaVarint] {
            let enc = encode_i64s(&vals, codec).unwrap();
            assert_eq!(decode_i64s(&enc, codec).unwrap(), vals, "{codec:?}");
        }
    }

    #[test]
    fn f64_roundtrip_all_codecs() {
        let vals: Vec<f64> = vec![0.0, 1.5, 1.5, -2.25, 1e300, f64::MIN_POSITIVE, -0.0];
        for codec in [Codec::Raw, Codec::Rle, Codec::XorFloat] {
            let enc = encode_f64s(&vals, codec).unwrap();
            let dec = decode_f64s(&enc, codec).unwrap();
            assert_eq!(dec.len(), vals.len());
            for (a, b) in dec.iter().zip(&vals) {
                assert_eq!(a.to_bits(), b.to_bits(), "{codec:?}");
            }
        }
    }

    #[test]
    fn f64_bit_patterns_survive_exactly() {
        // Adversarial bit patterns: the codecs must be transparent at the
        // bit level, so the assertion compares `to_bits()`, never values
        // (NaN != NaN, -0.0 == 0.0 would both lie).
        let patterns: [u64; 11] = [
            (-0.0f64).to_bits(),
            0.0f64.to_bits(),
            f64::NAN.to_bits(),
            0x7ff8_0000_0000_0001, // quiet NaN, payload 1
            0x7ff0_0000_0000_0001, // signaling NaN
            0xfff8_dead_beef_cafe, // negative NaN, full payload
            u64::MAX,              // negative NaN, all payload bits set
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            1,                               // smallest subnormal
            f64::MIN_POSITIVE.to_bits() - 1, // largest subnormal
        ];
        let vals: Vec<f64> = patterns.iter().map(|&b| f64::from_bits(b)).collect();
        for codec in [Codec::Raw, Codec::Rle, Codec::XorFloat] {
            let enc = encode_f64s(&vals, codec).unwrap();
            let dec = decode_f64s(&enc, codec).unwrap();
            let got: Vec<u64> = dec.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, patterns.to_vec(), "{codec:?}");
        }
    }

    #[test]
    fn empty_columns() {
        for codec in [Codec::Raw, Codec::Rle, Codec::DeltaVarint] {
            let enc = encode_i64s(&[], codec).unwrap();
            assert!(decode_i64s(&enc, codec).unwrap().is_empty());
        }
        let enc = encode_f64s(&[], Codec::XorFloat).unwrap();
        assert!(decode_f64s(&enc, Codec::XorFloat).unwrap().is_empty());
    }

    #[test]
    fn rle_compresses_constant_data() {
        let vals = vec![7i64; 10_000];
        let rle = encode_i64s(&vals, Codec::Rle).unwrap();
        let raw = encode_i64s(&vals, Codec::Raw).unwrap();
        assert!(
            rle.len() * 100 < raw.len(),
            "rle {} vs raw {}",
            rle.len(),
            raw.len()
        );
    }

    #[test]
    fn delta_varint_compresses_sorted_data() {
        let vals: Vec<i64> = (0..10_000).collect();
        let dv = encode_i64s(&vals, Codec::DeltaVarint).unwrap();
        let raw = encode_i64s(&vals, Codec::Raw).unwrap();
        assert!(
            dv.len() * 4 < raw.len(),
            "dv {} vs raw {}",
            dv.len(),
            raw.len()
        );
    }

    #[test]
    fn xor_compresses_smooth_floats() {
        let vals: Vec<f64> = vec![42.0; 10_000];
        let xor = encode_f64s(&vals, Codec::XorFloat).unwrap();
        let raw = encode_f64s(&vals, Codec::Raw).unwrap();
        assert!(
            xor.len() * 4 < raw.len(),
            "xor {} vs raw {}",
            xor.len(),
            raw.len()
        );
    }

    #[test]
    fn wrong_codec_family_rejected() {
        assert!(encode_i64s(&[1], Codec::XorFloat).is_err());
        assert!(encode_f64s(&[1.0], Codec::DeltaVarint).is_err());
    }

    #[test]
    fn bytes_roundtrip_and_rle() {
        let data = vec![0u8; 5000];
        for codec in [Codec::Raw, Codec::Rle] {
            let enc = encode_bytes(&data, codec).unwrap();
            assert_eq!(decode_bytes(&enc, codec).unwrap(), data);
        }
        let rle = encode_bytes(&data, Codec::Rle).unwrap();
        assert!(rle.len() < 100);
        // Long runs split at 255.
        let mixed: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let enc = encode_bytes(&mixed, Codec::Rle).unwrap();
        assert_eq!(decode_bytes(&enc, Codec::Rle).unwrap(), mixed);
    }

    #[test]
    fn corrupt_input_is_an_error_not_a_panic() {
        assert!(decode_i64s(&[0x80], Codec::DeltaVarint).is_err());
        assert!(decode_i64s(&[], Codec::Raw).is_err());
        let enc = encode_i64s(&[1, 2, 3], Codec::Raw).unwrap();
        assert!(decode_i64s(&enc[..enc.len() - 1], Codec::Raw).is_err());
        let enc = encode_f64s(&[1.0, 2.0], Codec::XorFloat).unwrap();
        assert!(decode_f64s(&enc[..enc.len() - 1], Codec::XorFloat).is_err());
        assert!(Codec::from_tag(9).is_err());
    }

    #[test]
    fn codec_tags_roundtrip() {
        for c in Codec::all() {
            assert_eq!(Codec::from_tag(c.tag()).unwrap(), c);
        }
    }
}
