//! The raw-object codec: how a bucket holds an object's text packed.
//!
//! CLASP's VMs "compress the raw data and upload it to the cloud
//! storage bucket" (§3.2). [`Packed`] is that compressed form in memory:
//! a small deterministic LZ-style byte codec, so one text always packs
//! to the same bytes and unpacks to exactly the text it was given. This
//! module is the only place that knows the format; everything else
//! reads object text through [`Packed::unpack_into`].
//!
//! # Format
//!
//! A packed text is a sequence of tokens, each written as
//!
//! ```text
//! tag: u8 = kind << 7 | lit << 4 | code
//! [lit extension]  LEB128, present when lit == 7 (run length = 7 + value)
//! literal run      kind 0: the bytes as they are
//!                  kind 1: two 4-bit indices into NIBBLE_ALPHABET per
//!                          byte, high half first
//! [code extension] LEB128, present when code == 15 (match = 20 + value)
//! [offset: u16 LE] present when code != 0
//! ```
//!
//! `code` 0 ends the token after its literals; `code` 1..=14 copies a
//! match of `code + 5` bytes (6 at least) starting `offset`
//! bytes back from the end of the output so far. A match may overlap
//! the bytes it produces, so a long repeat costs one token. The packed
//! form keeps the text's byte length beside the tokens, and every token
//! must land inside it.
//!
//! Measurement text is mostly line protocol, whose numbers are digits,
//! `.` and `-` between `,`, ` `, `=` and newlines: a literal run drawn
//! only from those sixteen bytes is stored at half its size.

use serde_json::Value;
use std::fmt;
use std::sync::Arc;

/// Shortest match the packer emits. Shorter repeats inside numbers are
/// chance, and storing them as literal digits is smaller.
const MIN_MATCH: usize = 6;

/// Farthest back a match reaches: a `u16` offset.
const WINDOW: usize = u16::MAX as usize;

/// The match finder's table holds `2^HASH_BITS` recent positions.
const HASH_BITS: u32 = 14;

/// Longest stretch of ASCII letters and digits the match finder steps
/// over between probes (see [`Packed::new`]).
const MAX_STRIDE: usize = 16;

/// The bytes a half-size literal run may hold.
const NIBBLE_ALPHABET: [u8; 16] = *b"0123456789.-, =\n";

/// Shortest literal stretch worth a token of its own at half size.
const NIBBLE_MIN: usize = 3;

/// Each byte's index in [`NIBBLE_ALPHABET`], or 0xff.
const NIBBLE_CODE: [u8; 256] = {
    let mut code = [0xff; 256];
    let mut i = 0;
    while i < NIBBLE_ALPHABET.len() {
        code[NIBBLE_ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    code
};

/// `b`'s index in [`NIBBLE_ALPHABET`].
#[inline]
fn nibble_code(b: u8) -> Option<u8> {
    NIBBLE_CODE.get(usize::from(b)).copied().filter(|&c| c < 16)
}

/// The two [`NIBBLE_ALPHABET`] bytes each packed byte stands for.
const NIBBLE_PAIRS: [[u8; 2]; 256] = {
    let mut pairs = [[0; 2]; 256];
    let mut x = 0;
    while x < 256 {
        pairs[x] = [NIBBLE_ALPHABET[x >> 4], NIBBLE_ALPHABET[x & 15]];
        x += 1;
    }
    pairs
};

/// An object's text, packed. Built only by [`Packed::new`], so its
/// tokens always unpack to the text it was given.
pub struct Packed {
    bytes: Box<[u8]>,
    len: usize,
}

impl Packed {
    /// Packs `text`.
    ///
    /// Matches are found greedily through a hash of the next six
    /// bytes. Line protocol repeats itself from
    /// separators on (measurement and tag names, field keys, shared
    /// value prefixes), so after a miss the finder probes the next
    /// position that follows a byte other than an ASCII letter or digit,
    /// and at least every 16 bytes inside longer
    /// alphanumeric stretches; a match found late is extended backwards
    /// to where it starts. Skipping positions can only cost size, never
    /// the round trip.
    pub fn new(text: &str) -> Packed {
        let src = text.as_bytes();
        let n = src.len();
        // Positions are stored as `u32` (plus one; zero is empty), so
        // the search stops short of 4 GiB and the rest stays literal.
        let search_end = n.min(u32::MAX as usize - 1);
        let mut out = Vec::with_capacity(n / 3 + 16);
        let mut table = vec![0u32; 1 << HASH_BITS];
        let mut anchor = 0;
        let mut i = 0;
        while i + 8 <= search_end {
            let key = match_key(src, i);
            let Some(slot) = table.get_mut(hash(key)) else {
                break; // the hash is below the table size
            };
            let cand = std::mem::replace(slot, i as u32 + 1) as usize;
            if let Some(mut c) = cand.checked_sub(1) {
                if i - c <= WINDOW && match_key(src, c) == key {
                    let mut len = MIN_MATCH + common_prefix(src, c + MIN_MATCH, i + MIN_MATCH);
                    while i > anchor && c > 0 && src.get(i - 1) == src.get(c - 1) {
                        i -= 1;
                        c -= 1;
                        len += 1;
                    }
                    emit(
                        &mut out,
                        src.get(anchor..i).unwrap_or_default(),
                        Some((len, i - c)),
                    );
                    i += len;
                    anchor = i;
                    if i + 8 <= search_end {
                        let p = i - 2;
                        if let Some(slot) = table.get_mut(hash(match_key(src, p))) {
                            *slot = p as u32 + 1;
                        }
                    }
                    continue;
                }
            }
            let stride_end = (i + MAX_STRIDE).min(n);
            i += 1;
            while i < stride_end && src.get(i - 1).is_some_and(u8::is_ascii_alphanumeric) {
                i += 1;
            }
        }
        if let Some(rest) = src.get(anchor..).filter(|rest| !rest.is_empty()) {
            emit(&mut out, rest, None);
        }
        Packed {
            bytes: out.into_boxed_slice(),
            len: n,
        }
    }

    /// Byte length of the text.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the text is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte length of the packed form.
    pub fn packed_len(&self) -> usize {
        self.bytes.len()
    }

    /// Replaces the contents of `out` with the text, reusing `out`'s
    /// allocation.
    pub fn unpack_into(&self, out: &mut String) {
        let mut buf = std::mem::take(out).into_bytes();
        buf.clear();
        buf.resize(self.len, 0);
        // Tokens come only from `new`, so they fill `buf` exactly with
        // the bytes of a `str`: the decoder cannot fail, and the lossy
        // fallback never runs. Neither would abort a campaign if it did.
        let _ = unpack(&self.bytes, &mut buf);
        *out = String::from_utf8(buf)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
    }

    /// The text, in a new `String`.
    pub fn unpack(&self) -> String {
        let mut out = String::new();
        self.unpack_into(&mut out);
        out
    }

    /// A JSON string of the text that shares these packed bytes
    /// ([`Value::Packed`]): it serializes as the text, and
    /// [`Self::from_json`] gets the same `Arc` back.
    pub fn to_json(self: &Arc<Self>) -> Value {
        Value::Packed(self.clone())
    }

    /// The packed text of a JSON string: the `Arc` itself when `v` came
    /// from [`Self::to_json`], and any other string packed once. `None`
    /// when `v` is not a string.
    pub fn from_json(v: &Value) -> Option<Arc<Packed>> {
        if let Value::Packed(p) = v {
            let any: Arc<dyn std::any::Any + Send + Sync> = p.clone();
            if let Ok(own) = any.downcast::<Packed>() {
                return Some(own);
            }
        }
        v.text().map(|text| Arc::new(Packed::new(&text)))
    }
}

impl fmt::Debug for Packed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packed")
            .field("len", &self.len)
            .field("packed_len", &self.bytes.len())
            .finish()
    }
}

impl serde_json::PackedText for Packed {
    fn unpack_into(&self, out: &mut String) {
        Packed::unpack_into(self, out);
    }
}

/// `b` as a little-endian `u64`, or 0 when it is not eight bytes long.
#[inline]
fn word(b: &[u8]) -> u64 {
    b.try_into().map_or(0, u64::from_le_bytes)
}

/// The [`MIN_MATCH`] bytes at `i` (which has eight bytes after it).
#[inline]
fn match_key(s: &[u8], i: usize) -> u64 {
    s.get(i..i + 8).map_or(0, word) << (8 * (8 - MIN_MATCH))
}

#[inline]
fn hash(key: u64) -> usize {
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - HASH_BITS)) as usize
}

/// Length of the common run of `s[a..]` and `s[b..]`.
fn common_prefix(s: &[u8], a: usize, b: usize) -> usize {
    let (Some(x), Some(y)) = (s.get(a..), s.get(b..)) else {
        return 0;
    };
    let mut n = 0;
    for (p, q) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        let diff = word(p) ^ word(q);
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    let tail = x.iter().skip(n).zip(y.iter().skip(n));
    n + tail.take_while(|(p, q)| p == q).count()
}

/// Writes `lits` and then the match `(len, offset)`, if any: stretches
/// of at least [`NIBBLE_MIN`] alphabet bytes go into half-size runs, the
/// rest into plain ones, and the match rides on the last token.
fn emit(out: &mut Vec<u8>, lits: &[u8], m: Option<(usize, usize)>) {
    let is_nibble = |b: &u8| nibble_code(*b).is_some();
    let mut plain_start = 0;
    let mut i = 0;
    while let Some(b) = lits.get(i) {
        if !is_nibble(b) {
            i += 1;
            continue;
        }
        let run = i;
        i += lits.iter().skip(run).take_while(|b| is_nibble(b)).count();
        if i - run < NIBBLE_MIN {
            continue;
        }
        let plain = lits.get(plain_start..run).unwrap_or_default();
        if !plain.is_empty() {
            token(out, false, plain, None);
        }
        let nibbles = lits.get(run..i).unwrap_or_default();
        if i == lits.len() {
            token(out, true, nibbles, m);
            return;
        }
        token(out, true, nibbles, None);
        plain_start = i;
    }
    token(out, false, lits.get(plain_start..).unwrap_or_default(), m);
}

/// Writes one token (see the module docs).
fn token(out: &mut Vec<u8>, nibbles: bool, lits: &[u8], m: Option<(usize, usize)>) {
    let lit = lits.len().min(7);
    let code = m.map_or(0, |(len, _)| (len - MIN_MATCH + 1).min(15));
    out.push((u8::from(nibbles) << 7) | (lit as u8) << 4 | code as u8);
    if lit == 7 {
        varint(out, lits.len() - 7);
    }
    if nibbles {
        let start = out.len();
        out.resize(start + lits.len().div_ceil(2), 0);
        let code = |b: u8| nibble_code(b).unwrap_or(0);
        let mut packed = out.iter_mut().skip(start);
        let mut pairs = lits.chunks_exact(2);
        // `pairs` leads the zip, so the byte for an odd last code is
        // still in `packed` when the pairs run out.
        for (pair, dst) in (&mut pairs).zip(&mut packed) {
            if let &[hi, lo] = pair {
                *dst = code(hi) << 4 | code(lo);
            }
        }
        if let (Some(dst), &[last]) = (packed.next(), pairs.remainder()) {
            *dst = code(last) << 4;
        }
    } else {
        out.extend_from_slice(lits);
    }
    if let Some((len, offset)) = m {
        if code == 15 {
            varint(out, len - MIN_MATCH - 14);
        }
        out.extend_from_slice(&(offset as u16).to_le_bytes());
    }
}

/// Appends `v` as LEB128.
fn varint(out: &mut Vec<u8>, mut v: usize) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads a LEB128 value at `*pos`.
fn read_varint(b: &[u8], pos: &mut usize) -> Option<usize> {
    let mut v = 0usize;
    let mut shift = 0;
    loop {
        let x = *b.get(*pos)?;
        *pos += 1;
        v |= usize::from(x & 0x7f).checked_shl(shift)?;
        if x < 0x80 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Decodes `b` into `out`, which has the text's length. `None` when a
/// token does not fit, or the tokens end before `out` is full.
fn unpack(b: &[u8], out: &mut [u8]) -> Option<()> {
    let mut pos = 0;
    let mut o = 0usize;
    while let Some(&tag) = b.get(pos) {
        pos += 1;
        let mut lit = usize::from(tag >> 4 & 7);
        if lit == 7 {
            lit += read_varint(b, &mut pos)?;
        }
        let dst = out.get_mut(o..o.checked_add(lit)?)?;
        o += lit;
        if tag & 0x80 == 0 {
            dst.copy_from_slice(b.get(pos..pos + lit)?);
            pos += lit;
        } else {
            let half = lit.div_ceil(2);
            let src = b.get(pos..pos + half)?;
            pos += half;
            let mut pairs = dst.chunks_exact_mut(2);
            for (pair, &x) in (&mut pairs).zip(src) {
                pair.copy_from_slice(NIBBLE_PAIRS.get(usize::from(x))?);
            }
            if let ([last], Some(&x)) = (pairs.into_remainder(), src.last()) {
                *last = NIBBLE_PAIRS.get(usize::from(x))?.first().copied()?;
            }
        }
        let code = usize::from(tag & 15);
        if code == 0 {
            continue;
        }
        let mut len = code + MIN_MATCH - 1;
        if code == 15 {
            len += read_varint(b, &mut pos)?;
        }
        let &[lo, hi] = b.get(pos..pos + 2)? else {
            return None;
        };
        let offset = u16::from_le_bytes([lo, hi]);
        pos += 2;
        let mut from = o.checked_sub(usize::from(offset)).filter(|_| offset > 0)?;
        let end = o.checked_add(len).filter(|&e| e <= out.len())?;
        // An overlapping match repeats its last `offset` bytes: copy
        // them a period at a time.
        while o < end {
            let k = (end - o).min(o - from);
            out.copy_within(from..from + k, o);
            from += k;
            o += k;
        }
    }
    (o == out.len()).then_some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> Packed {
        let p = Packed::new(text);
        assert_eq!(p.unpack(), text);
        assert_eq!(p.len(), text.len());
        p
    }

    #[test]
    fn edge_texts_roundtrip() {
        for text in [
            "",
            "x",
            "1234567",
            "12345678",
            "no newline at the end",
            "a\\ b\\,c\\=d\\\\e \"quoted\"\n",
            "héllo wörld ✓ 🚀\n",
            "\u{0}\u{1}\t\r\n",
        ] {
            roundtrip(text);
        }
    }

    #[test]
    fn repeats_pack_small() {
        let line = "speedtest,method=topo,region=us-west1,server=ookla-1481,tier=premium \
                    dloss=0.0001,download=427.21,latency=5.95,uloss=0.0001,upload=96.8 0\n";
        let text = line.repeat(500);
        let p = roundtrip(&text);
        assert!(p.packed_len() * 50 < text.len(), "{p:?}");
        // A run far longer than the window is one overlapping match.
        let run = "z".repeat(3 * WINDOW);
        assert!(roundtrip(&run).packed_len() < 32);
    }

    #[test]
    fn digits_pack_to_half() {
        let digits: String = (0..4000u64)
            .map(|i| char::from(b'0' + (i * 7919 % 10_007 % 10) as u8))
            .collect();
        let p = roundtrip(&digits);
        assert!(p.packed_len() <= digits.len() / 2 + 64, "{p:?}");
    }

    #[test]
    fn repeats_beyond_the_window_stay_exact() {
        // A block longer than the window, twice: the second copy cannot
        // reach the first, and must still round-trip.
        let block: String = (0..WINDOW as u64 + 5000)
            .map(|i| char::from(b'a' + (i.wrapping_mul(0x9e37_79b9) >> 7) as u8 % 26))
            .collect();
        roundtrip(&format!("{block}{block}"));
    }

    #[test]
    fn unpack_into_replaces_the_buffer() {
        let p = Packed::new("abc abc abc abc\n");
        let mut buf = String::from("left over from an earlier object");
        p.unpack_into(&mut buf);
        assert_eq!(buf, "abc abc abc abc\n");
    }

    #[test]
    fn truncated_tokens_are_refused_not_panicked() {
        let p = Packed::new(&"speedtest,a=b f=1.5 0\n".repeat(40));
        let mut out = vec![0u8; p.len()];
        assert_eq!(unpack(&p.bytes, &mut out), Some(()));
        for cut in 0..p.bytes.len() {
            let mut out = vec![0u8; p.len()];
            assert_eq!(unpack(&p.bytes[..cut], &mut out), None, "cut at {cut}");
        }
    }
}
