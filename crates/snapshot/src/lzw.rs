//! LZW compression for checkpoints.
//!
//! "The checkpoint manager ... compresses the checkpoints using the LZW
//! algorithm" (§4). This is a straightforward variable-width LZW over
//! bytes: codes start at 9 bits and grow to 16; the dictionary resets when
//! full. Compression shrinks the repetitive encodings of protocol states
//! (Bullet' checkpoints compress to ≈3 kB in §5.5).

/// Maximum code width in bits.
const MAX_BITS: u32 = 16;
/// First available code (256 literals + 1 reserved reset code).
const FIRST_CODE: u32 = 257;
/// Dictionary-reset marker.
const RESET_CODE: u32 = 256;
/// Most bytes [`decompress`] will produce. A compressed payload arrives in
/// one frame of at most [`cb_model::MAX_FRAME_LEN`] bytes, and its sender
/// compressed a checkpoint it would otherwise have shipped raw in such a
/// frame; 16 frames' worth leaves room for states that only fit a frame
/// *because* they compress, while ≈130 KB of crafted codes can no longer
/// expand to ≈2 GB. [`apply_diff`](crate::apply_diff) holds a patched
/// value's claimed length to the same limit.
pub const MAX_DECOMPRESSED_LEN: usize = 16 * cb_model::MAX_FRAME_LEN;

struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter {
            out: Vec::new(),
            acc: 0,
            nbits: 0,
        }
    }
    fn push(&mut self, code: u32, width: u32) {
        self.acc |= u64::from(code) << self.nbits;
        self.nbits += width;
        while self.nbits >= 8 {
            self.out.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }
    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.acc & 0xff) as u8);
        }
        self.out
    }
}

struct BitReader<'a> {
    inp: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(inp: &'a [u8]) -> Self {
        BitReader {
            inp,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }
    fn pull(&mut self, width: u32) -> Option<u32> {
        while self.nbits < width {
            if self.pos >= self.inp.len() {
                return None;
            }
            self.acc |= u64::from(self.inp[self.pos]) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
        let v = (self.acc & ((1u64 << width) - 1)) as u32;
        self.acc >>= width;
        self.nbits -= width;
        Some(v)
    }
}

/// Compresses `data` with LZW. Empty input encodes to an empty output.
pub fn compress(data: &[u8]) -> Vec<u8> {
    if data.is_empty() {
        return Vec::new();
    }
    // Dictionary: map from (prefix code, next byte) to code.
    let mut dict: std::collections::HashMap<(u32, u8), u32> = std::collections::HashMap::new();
    let mut next_code = FIRST_CODE;
    let mut width = 9u32;
    let mut w = BitWriter::new();

    let mut current = u32::from(data[0]);
    for &b in &data[1..] {
        if let Some(&code) = dict.get(&(current, b)) {
            current = code;
        } else {
            w.push(current, width);
            dict.insert((current, b), next_code);
            next_code += 1;
            if next_code > (1 << width) && width < MAX_BITS {
                width += 1;
            }
            if next_code >= (1 << MAX_BITS) {
                w.push(RESET_CODE, width);
                dict.clear();
                next_code = FIRST_CODE;
                width = 9;
            }
            current = u32::from(b);
        }
    }
    w.push(current, width);
    w.finish()
}

/// Decompression failure (corrupt stream, or one expanding past
/// [`MAX_DECOMPRESSED_LEN`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LzwError;

impl std::fmt::Display for LzwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt LZW stream")
    }
}

impl std::error::Error for LzwError {}

/// Decompresses an LZW stream produced by [`compress`]. The output — and
/// with it the dictionary, whose entries are copies of emitted runs — is
/// bounded by [`MAX_DECOMPRESSED_LEN`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, LzwError> {
    if data.is_empty() {
        return Ok(Vec::new());
    }
    let mut table: Vec<Vec<u8>> = (0..=255u8).map(|b| vec![b]).collect();
    table.push(Vec::new()); // RESET_CODE placeholder
    let mut width = 9u32;
    let mut r = BitReader::new(data);
    let mut out = Vec::new();

    let first = r.pull(width).ok_or(LzwError)?;
    if first == RESET_CODE || first > 255 {
        return Err(LzwError);
    }
    let mut prev: Vec<u8> = table[first as usize].clone();
    out.extend_from_slice(&prev);

    while let Some(code) = r.pull(width) {
        if code == RESET_CODE {
            table.truncate(257);
            width = 9;
            let Some(next) = r.pull(width) else { break };
            if next > 255 {
                return Err(LzwError);
            }
            prev = table[next as usize].clone();
            out.extend_from_slice(&prev);
            continue;
        }
        let entry = if (code as usize) < table.len() {
            table[code as usize].clone()
        } else if code as usize == table.len() {
            // The classic KwKwK case.
            let mut e = prev.clone();
            e.push(prev[0]);
            e
        } else {
            return Err(LzwError);
        };
        if out.len() + entry.len() > MAX_DECOMPRESSED_LEN {
            return Err(LzwError);
        }
        out.extend_from_slice(&entry);
        let mut new_entry = prev.clone();
        new_entry.push(entry[0]);
        table.push(new_entry);
        // Mirror the compressor's width growth: it widens after assigning
        // code `next_code` when next_code+1 exceeds the current width.
        if table.len() + 1 > (1 << width) && width < MAX_BITS {
            width += 1;
        }
        prev = entry;
    }
    Ok(out)
}

/// Compression ratio helper (compressed/original, 1.0 when original empty).
pub fn ratio(original: usize, compressed: usize) -> f64 {
    if original == 0 {
        1.0
    } else {
        compressed as f64 / original as f64
    }
}

/// The most expansive stream the decoder accepts: one literal, then every
/// code naming the entry about to be defined (the KwKwK case), so entry
/// `k` is `k + 1` bytes long — ≈126 KB of codes for ≈2 GB of output.
#[cfg(test)]
pub(crate) fn kwkwk_bomb() -> Vec<u8> {
    let mut w = BitWriter::new();
    let mut width = 9u32;
    w.push(u32::from(b'a'), width);
    for table_len in FIRST_CODE..(1 << MAX_BITS) {
        w.push(table_len, width);
        if table_len + 2 > (1 << width) && width < MAX_BITS {
            width += 1;
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).expect("decompress");
        assert_eq!(d, data, "roundtrip failed for {} bytes", data.len());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"aaa");
        assert!(compress(b"").is_empty());
    }

    #[test]
    fn classic_kwkwk_case() {
        roundtrip(b"abababababab");
        roundtrip(b"aaaaaaaaaaaaaaaaaaaaaaaa");
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data: Vec<u8> = std::iter::repeat_n(b"checkpoint-block-", 200)
            .flatten()
            .copied()
            .collect();
        let c = compress(&data);
        assert!(
            c.len() * 3 < data.len(),
            "repetitive input should compress >3x: {} -> {}",
            data.len(),
            c.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn binary_data_roundtrips() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        roundtrip(&data);
    }

    #[test]
    fn large_input_exercises_dictionary_reset() {
        // Enough distinct digrams to overflow the 16-bit dictionary.
        let mut data = Vec::with_capacity(400_000);
        let mut x: u32 = 1;
        for _ in 0..400_000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            data.push((x >> 24) as u8);
        }
        roundtrip(&data);
    }

    #[test]
    fn adversarial_sizes_roundtrip() {
        // Empty, identical-byte, and >64 KiB inputs on both ends of the
        // compressibility spectrum.
        roundtrip(&[]);
        roundtrip(&vec![0u8; 70 * 1024]); // 70 KiB of one symbol
        let compressible: Vec<u8> = std::iter::repeat_n(b"node-slot-encoding-", 4_000)
            .flatten()
            .copied()
            .collect();
        assert!(compressible.len() > 64 * 1024);
        let c = compress(&compressible);
        assert!(c.len() * 2 < compressible.len());
        roundtrip(&compressible);
        // Incompressible (pseudo-random) >64 KiB: may expand, must roundtrip.
        let mut x: u32 = 99;
        let incompressible: Vec<u8> = (0..66 * 1024)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect();
        roundtrip(&incompressible);
    }

    #[test]
    fn corrupt_streams_fail_gracefully() {
        assert_eq!(decompress(&[0xff, 0xff, 0xff]), Err(LzwError));
        // Truncations of a valid stream either succeed with a prefix or
        // fail cleanly — they must not panic.
        let c = compress(b"hello hello hello hello");
        for cut in 0..c.len() {
            let _ = decompress(&c[..cut]);
        }
    }

    #[test]
    fn bomb_stops_at_the_output_cap() {
        let bomb = kwkwk_bomb();
        assert!(bomb.len() < 140 * 1024, "{} bytes of codes", bomb.len());
        assert_eq!(decompress(&bomb), Err(LzwError));
        // The same chain cut short of the cap is a valid stream: the
        // rejection above is the cap, not a malformed code.
        let run = decompress(&bomb[..4096]).expect("a short chain decodes");
        assert!(run.len() > 1 << 20 && run.iter().all(|&b| b == b'a'));
    }

    #[test]
    fn ratio_helper() {
        assert_eq!(ratio(0, 10), 1.0);
        assert!((ratio(100, 50) - 0.5).abs() < 1e-9);
    }

    // Randomized roundtrips over seeded pseudo-random inputs (stand-ins
    // for the original property-based tests; proptest is unavailable
    // offline, and a fixed seed makes failures directly reproducible).

    #[test]
    fn random_roundtrip() {
        let mut r = StdRng::seed_from_u64(0x12a);
        for _ in 0..64 {
            let len = r.gen_range(0usize..2048);
            let data: Vec<u8> = (0..len).map(|_| (r.gen::<u32>() & 0xff) as u8).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn random_roundtrip_structured() {
        let mut r = StdRng::seed_from_u64(0x12b);
        for _ in 0..64 {
            // Structured (small-alphabet) inputs mimic encoded checkpoints.
            let words: Vec<u16> = (0..r.gen_range(0usize..512))
                .map(|_| r.gen_range(0u16..64))
                .collect();
            let data: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn random_decompress_never_panics() {
        let mut r = StdRng::seed_from_u64(0x12c);
        for _ in 0..256 {
            let len = r.gen_range(0usize..512);
            let data: Vec<u8> = (0..len).map(|_| (r.gen::<u32>() & 0xff) as u8).collect();
            let _ = decompress(&data);
        }
    }
}
