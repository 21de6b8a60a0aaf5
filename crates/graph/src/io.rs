//! The checksummed-frame primitives the durability layer (`loom-store`)
//! builds its write-ahead log and checkpoint blobs on: [`crc32`]
//! (CRC-32/ISO-HDLC) and the [`seal_frame`]/[`take_frame`] length-prefixed
//! frame codec. A frame is
//! `[len: u32 le][crc32(payload): u32 le][payload]`; a reader that hits a
//! torn or bit-flipped frame gets a clean `Err` with nothing consumed, so a
//! torn log tail can be truncated at the last good frame boundary.

use crate::error::{GraphError, Result};
/// Lookup tables for the reflected CRC-32 polynomial `0xEDB88320`
/// (CRC-32/ISO-HDLC, the zlib/Ethernet checksum), built at compile time.
/// `CRC32_TABLES[0]` is the classic byte-at-a-time table; `CRC32_TABLES[k]`
/// advances a byte's contribution past `k` further zero bytes, which is what
/// lets [`crc32`] fold eight input bytes per step (slice-by-8).
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// One byte-at-a-time CRC step: the definition the word-at-a-time kernel
/// must agree with, and the loop for the tail shorter than a word.
#[inline]
fn crc32_step(c: u32, b: u8) -> u32 {
    CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
}

/// CRC-32/ISO-HDLC of `bytes` (the zlib `crc32`; `crc32(b"123456789") ==
/// 0xCBF4_3926`). Used to checksum WAL records, checkpoint blobs and
/// manifests in the durability layer. Eight bytes are folded per step
/// through eight tables; the values are those of the bytewise definition.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = CRC32_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC32_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[4][(lo >> 24) as usize]
            ^ CRC32_TABLES[3][w[4] as usize]
            ^ CRC32_TABLES[2][w[5] as usize]
            ^ CRC32_TABLES[1][w[6] as usize]
            ^ CRC32_TABLES[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = crc32_step(c, b);
    }
    c ^ 0xFFFF_FFFF
}

/// The bytewise reference the slice-by-8 kernel is checked against.
#[cfg(test)]
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(0xFFFF_FFFFu32, |c, &b| crc32_step(c, b))
}

/// Bytes of header in front of every frame's payload: `[len: u32 le]
/// [crc32(payload): u32 le]`.
pub const FRAME_HEADER: usize = 8;

/// Seal a frame built in place: `frame` is [`FRAME_HEADER`] reserved bytes
/// followed by the payload, and the payload's length and checksum are
/// written into the reserved header. A writer that encodes its payload
/// straight behind a reserved header needs no second buffer.
///
/// # Panics
///
/// Panics if `frame` is shorter than the header or the payload exceeds
/// `u32::MAX` bytes (a frame is a bounded record, not a container format).
pub fn seal_frame(frame: &mut [u8]) {
    let (header, payload) = frame.split_at_mut(FRAME_HEADER);
    let len = u32::try_from(payload.len()).expect("frame payload fits in u32");
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Take one checksummed frame off the front of `bytes` and return its
/// payload, borrowed from the input.
///
/// Returns `Ok(None)` when `bytes` is empty (a clean end); `Err` when the
/// header or payload is truncated, the payload length exceeds `max_len`
/// (guarding against absurd lengths from a corrupt prefix), or the checksum
/// does not match. On `Err`, `bytes` is left exactly as it was, so the
/// caller knows the offset of the last good frame boundary.
pub fn take_frame<'a>(bytes: &mut &'a [u8], max_len: usize) -> Result<Option<&'a [u8]>> {
    let view = *bytes;
    if view.is_empty() {
        return Ok(None);
    }
    let corrupt = |message: String| GraphError::Parse { line: 0, message };
    if view.len() < FRAME_HEADER {
        return Err(corrupt(format!(
            "torn frame header: {} trailing bytes",
            view.len()
        )));
    }
    let (header, rest) = view.split_at(FRAME_HEADER);
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let want = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    if len > max_len {
        return Err(corrupt(format!(
            "frame length {len} exceeds the {max_len}-byte limit"
        )));
    }
    if rest.len() < len {
        return Err(corrupt(format!(
            "torn frame payload: header promises {len} bytes, {} remain",
            rest.len()
        )));
    }
    let (payload, rest) = rest.split_at(len);
    let got = crc32(payload);
    if got != want {
        return Err(corrupt(format!(
            "frame checksum mismatch (expected 0x{want:08x}, got 0x{got:08x})"
        )));
    }
    *bytes = rest;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"loom"), crc32(b"looM"));
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b""), 0);
    }

    proptest::proptest! {
        /// The word-at-a-time kernel equals the bytewise definition on every
        /// length 0..=64 (word loop, tail loop, and both) and on longer
        /// buffers at every start alignment.
        #[test]
        fn crc32_kernel_equals_the_bytewise_reference(
            words in proptest::collection::vec(0u64..u64::MAX, 9..10),
            long in proptest::collection::vec(0u64..u64::MAX, 16..512),
            odd in 0usize..8,
        ) {
            let bytes = |words: &[u64]| -> Vec<u8> {
                words.iter().flat_map(|w| w.to_le_bytes()).collect()
            };
            let (short, long) = (bytes(&words), bytes(&long));
            for len in 0..=64 {
                proptest::prop_assert_eq!(crc32(&short[..len]), crc32_bytewise(&short[..len]));
            }
            let long = &long[..long.len() - odd];
            for start in 0..8 {
                proptest::prop_assert_eq!(crc32(&short[start..]), crc32_bytewise(&short[start..]));
                proptest::prop_assert_eq!(crc32(&long[start..]), crc32_bytewise(&long[start..]));
            }
        }
    }

    /// One sealed frame around `payload`.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut frame = vec![0; FRAME_HEADER];
        frame.extend_from_slice(payload);
        seal_frame(&mut frame);
        frame
    }

    #[test]
    fn frames_roundtrip_and_survive_concatenation() {
        let log = [framed(b"first"), framed(b""), framed(b"third record")].concat();
        let mut bytes = log.as_slice();
        assert_eq!(take_frame(&mut bytes, 1024).unwrap().unwrap(), b"first");
        assert_eq!(take_frame(&mut bytes, 1024).unwrap().unwrap(), b"");
        assert_eq!(
            take_frame(&mut bytes, 1024).unwrap().unwrap(),
            b"third record"
        );
        assert!(take_frame(&mut bytes, 1024).unwrap().is_none());
    }

    #[test]
    fn torn_and_corrupt_frames_error_without_consuming() {
        let mut blob = framed(b"good");
        // Append a torn second frame: header promising more than remains.
        blob.extend_from_slice(&9999u32.to_le_bytes());
        blob.extend_from_slice(&0u32.to_le_bytes());
        blob.extend_from_slice(b"tail");
        let mut bytes = blob.as_slice();
        let before_good = bytes.len();
        assert!(take_frame(&mut bytes, 1 << 20).unwrap().is_some());
        assert_eq!(before_good - bytes.len(), 8 + 4);
        let at_tear = bytes.len();
        assert!(take_frame(&mut bytes, 1 << 20).is_err());
        // Nothing consumed: the caller can truncate at this exact offset.
        assert_eq!(bytes.len(), at_tear);

        // A checksum flip errors too, also without consuming.
        let mut flipped = framed(b"payload");
        *flipped.last_mut().unwrap() ^= 0x40;
        let mut bytes = flipped.as_slice();
        assert!(take_frame(&mut bytes, 1 << 20).is_err());
        assert_eq!(bytes.len(), 8 + b"payload".len());

        // A length prefix beyond the caller's limit is rejected before the
        // payload is looked at.
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes());
        assert!(take_frame(&mut huge.as_slice(), 1 << 20).is_err());
    }
}
