//! Row serialization, order-preserving key encoding, and the record
//! codec every persisted or transmitted structure is written in.
//!
//! Three independent encodings live here:
//!
//! * **Row codec** ([`encode_row`] / [`decode_row`] / [`RowView`]) — the
//!   on-page tuple format used by heap pages. Self-describing (one tag
//!   byte per value) and cheap to project: [`RowView::value`] walks tag
//!   bytes instead of materializing the whole row, which is what keeps
//!   full-table scans with a single-column predicate fast.
//!
//! * **Memcomparable key codec** ([`encode_key`] / [`decode_key`]) — the
//!   B+-tree key format. Encoded keys compare with plain byte
//!   comparison in the same order as the decoded [`Value`] tuples, and
//!   the encoding of a tuple *prefix* is a byte-prefix of the full
//!   encoding, so a composite index `I(a,b)` can be seeked with just an
//!   `a` value. Integers are tagged and offset-flipped big-endian;
//!   strings are `0x00`-escaped and double-zero terminated.
//!
//! * **Record codec** (the `put_*` writers and [`Reader`]) — the
//!   little-endian field format of the engine's catalog commit records,
//!   the online advisor's saved state, the pager's commit and
//!   checkpoint metadata, and the server's result payloads. Integers are
//!   fixed-width little-endian, `f64` travels as its IEEE-754 bits,
//!   strings, byte blobs and lists carry a `u32` length, and an
//!   optional or boolean field is a `0`/`1` tag byte. Decoding is
//!   *strict*: truncation, trailing bytes, a tag other than `0`/`1`, or
//!   invalid UTF-8 is [`Error::Corrupt`], never a half-decoded value,
//!   and no length read from the input can reserve more elements than
//!   the input has bytes left.

use cdpd_types::{Error, PageId, Result, Rid, Value};

const TAG_INT: u8 = 0x01;
const TAG_STR: u8 = 0x02;

// --- Row codec ---------------------------------------------------------

/// Append the row encoding of `values` to `out`, reserving its length
/// first.
pub fn encode_row(values: &[Value], out: &mut Vec<u8>) {
    out.reserve(values.iter().map(Value::encoded_len).sum());
    for v in values {
        encode_value(v, out);
    }
}

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            let len = u16::try_from(s.len()).expect("string too long for row codec");
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Decode a full row.
pub fn decode_row(bytes: &[u8]) -> Result<Vec<Value>> {
    let mut out = Vec::new();
    decode_row_into(bytes, &mut out)?;
    Ok(out)
}

/// Decode a full row into `out`, replacing its contents: a caller that
/// decodes row after row reuses one buffer.
pub fn decode_row_into(mut bytes: &[u8], out: &mut Vec<Value>) -> Result<()> {
    out.clear();
    while !bytes.is_empty() {
        out.push(decode_value(&mut bytes)?);
    }
    Ok(())
}

fn decode_value(bytes: &mut &[u8]) -> Result<Value> {
    let (&tag, rest) = bytes
        .split_first()
        .ok_or_else(|| Error::Corrupt("truncated row: missing tag".into()))?;
    *bytes = rest;
    match tag {
        TAG_INT => {
            let (head, rest) = bytes
                .split_first_chunk::<8>()
                .ok_or_else(|| Error::Corrupt("truncated row: short int".into()))?;
            *bytes = rest;
            Ok(Value::Int(i64::from_le_bytes(*head)))
        }
        TAG_STR => Ok(Value::Str(decode_str(bytes)?.to_owned())),
        tag => Err(Error::Corrupt(format!("unknown value tag {tag:#x}"))),
    }
}

/// The body of a `STR` value whose tag was just consumed, borrowed.
fn decode_str<'b>(bytes: &mut &'b [u8]) -> Result<&'b str> {
    let (head, rest) = bytes
        .split_first_chunk::<2>()
        .ok_or_else(|| Error::Corrupt("truncated row: short str len".into()))?;
    let len = u16::from_le_bytes(*head) as usize;
    if rest.len() < len {
        return Err(Error::Corrupt("truncated row: short str body".into()));
    }
    let s = std::str::from_utf8(&rest[..len])
        .map_err(|_| Error::Corrupt("row string is not UTF-8".into()))?;
    *bytes = &rest[len..];
    Ok(s)
}

/// Zero-copy accessor over an encoded row.
///
/// `value(i)` skips `i` encoded values by reading tags and lengths —
/// no allocation until the requested value is materialized, and for
/// integer columns [`RowView::int`] allocates nothing at all.
#[derive(Clone, Copy)]
pub struct RowView<'a> {
    bytes: &'a [u8],
}

impl<'a> RowView<'a> {
    /// Wrap encoded row bytes.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> RowView<'a> {
        RowView { bytes }
    }

    /// The raw encoded bytes.
    #[inline]
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    #[inline]
    fn offset_of(&self, col: usize) -> Result<usize> {
        let mut off = 0usize;
        for _ in 0..col {
            let tag = *self
                .bytes
                .get(off)
                .ok_or_else(|| Error::Corrupt("row too short for column".into()))?;
            off += 1;
            match tag {
                TAG_INT => off += 8,
                TAG_STR => {
                    let len = self
                        .bytes
                        .get(off..off + 2)
                        .map(|b| u16::from_le_bytes([b[0], b[1]]) as usize)
                        .ok_or_else(|| Error::Corrupt("row too short for str len".into()))?;
                    off += 2 + len;
                }
                t => return Err(Error::Corrupt(format!("unknown value tag {t:#x}"))),
            }
        }
        Ok(off)
    }

    /// Decode the value of column `col`.
    pub fn value(&self, col: usize) -> Result<Value> {
        let off = self.offset_of(col)?;
        let mut rest = &self.bytes[off..];
        decode_value(&mut rest)
    }

    /// The integer whose tag sits at byte `off`: one bounds check and
    /// one tag test inline, the error built out of line.
    #[inline(always)]
    fn int_at(&self, off: usize) -> Result<i64> {
        if let Some(b) = self.bytes.get(off..off + 9) {
            if b[0] == TAG_INT {
                return Ok(i64::from_le_bytes(
                    b[1..].try_into().expect("slice is 8 bytes"),
                ));
            }
        }
        self.int_error(off)
    }

    /// Why no integer's tag sits at byte `off`.
    #[cold]
    #[inline(never)]
    fn int_error(&self, off: usize) -> Result<i64> {
        Err(match self.bytes.get(off) {
            Some(&TAG_INT) => Error::Corrupt("truncated int column".into()),
            Some(_) => Error::TypeMismatch("column is not INT".into()),
            None => Error::Corrupt("row too short".into()),
        })
    }

    /// Fast path: column `col` as an integer without allocating.
    pub fn int(&self, col: usize) -> Result<i64> {
        // Not routed through `int_at`: a heap scan reading `int(0)`
        // measured 4–10% slower that way.
        let off = self.offset_of(col)?;
        match self.bytes.get(off) {
            Some(&TAG_INT) => {
                let b = self
                    .bytes
                    .get(off + 1..off + 9)
                    .ok_or_else(|| Error::Corrupt("truncated int column".into()))?;
                Ok(i64::from_le_bytes(b.try_into().expect("slice is 8 bytes")))
            }
            Some(_) => Err(Error::TypeMismatch("column is not INT".into())),
            None => Err(Error::Corrupt("row too short".into())),
        }
    }

    /// Column `col` as an integer when every column before it is `INT`:
    /// those columns take 9 bytes each, so the value's tag sits at the
    /// fixed offset `9·col` and no earlier tag is walked. The tag is
    /// still checked.
    #[inline(always)]
    pub fn int_fixed(&self, col: usize) -> Result<i64> {
        self.int_at(9 * col)
    }

    /// Append the memcomparable key encoding of column `col` to `out`
    /// (what [`encode_key_value`] writes for the decoded value), without
    /// materializing the column as a [`Value`]: it allocates nothing
    /// beyond `out`'s growth.
    #[inline]
    pub fn encode_key_column(&self, col: usize, out: &mut Vec<u8>) -> Result<()> {
        let off = self.offset_of(col)?;
        match self.bytes.get(off) {
            Some(&TAG_INT) => encode_key_int(self.int_at(off)?, out),
            Some(&TAG_STR) => encode_key_str(decode_str(&mut &self.bytes[off + 1..])?, out),
            _ => encode_key_value(&self.value(col)?, out),
        }
        Ok(())
    }
}

// --- Memcomparable key codec -------------------------------------------

const KEY_TAG_INT: u8 = 0x10;
const KEY_TAG_STR: u8 = 0x20;

/// Append the memcomparable encoding of one integer to `out`.
#[inline]
fn encode_key_int(i: i64, out: &mut Vec<u8>) {
    out.push(KEY_TAG_INT);
    // Flip the sign bit so two's-complement order becomes unsigned byte
    // order, then big-endian for memcmp.
    out.extend_from_slice(&(((i as u64) ^ (1u64 << 63)).to_be_bytes()));
}

/// Append the memcomparable encoding of one string to `out`: NUL bytes
/// escape to `00 FF` and `00 00` terminates, so a prefix sorts first.
fn encode_key_str(s: &str, out: &mut Vec<u8>) {
    out.push(KEY_TAG_STR);
    for &b in s.as_bytes() {
        if b == 0x00 {
            out.extend_from_slice(&[0x00, 0xFF]);
        } else {
            out.push(b);
        }
    }
    out.extend_from_slice(&[0x00, 0x00]);
}

/// Append the memcomparable encoding of one value to `out`.
pub fn encode_key_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Int(i) => encode_key_int(*i, out),
        Value::Str(s) => encode_key_str(s, out),
    }
}

/// The number of bytes [`encode_key_value`] appends for `v`.
pub fn key_value_len(v: &Value) -> usize {
    match v {
        Value::Int(_) => 9,
        Value::Str(s) => 3 + s.len() + s.bytes().filter(|&b| b == 0).count(),
    }
}

/// Memcomparable encoding of a value tuple.
///
/// Guarantees: `encode_key(a) < encode_key(b)` (byte order) iff `a < b`
/// (tuple order), and `encode_key(&t[..k])` is a byte-prefix of
/// `encode_key(t)`.
pub fn encode_key(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 9);
    for v in values {
        encode_key_value(v, &mut out);
    }
    out
}

/// Decode a memcomparable key back into values.
pub fn decode_key(mut bytes: &[u8]) -> Result<Vec<Value>> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        match bytes[0] {
            KEY_TAG_INT => {
                let b = bytes
                    .get(1..9)
                    .ok_or_else(|| Error::Corrupt("truncated int key".into()))?;
                let raw = u64::from_be_bytes(b.try_into().expect("slice is 8 bytes"));
                out.push(Value::Int((raw ^ (1u64 << 63)) as i64));
                bytes = &bytes[9..];
            }
            KEY_TAG_STR => {
                bytes = &bytes[1..];
                let mut s = Vec::new();
                loop {
                    match bytes {
                        [0x00, 0x00, rest @ ..] => {
                            bytes = rest;
                            break;
                        }
                        [0x00, 0xFF, rest @ ..] => {
                            s.push(0x00);
                            bytes = rest;
                        }
                        [b, rest @ ..] => {
                            s.push(*b);
                            bytes = rest;
                        }
                        [] => return Err(Error::Corrupt("unterminated string key".into())),
                    }
                }
                out.push(Value::Str(
                    String::from_utf8(s)
                        .map_err(|_| Error::Corrupt("key string is not UTF-8".into()))?,
                ));
            }
            t => return Err(Error::Corrupt(format!("unknown key tag {t:#x}"))),
        }
    }
    Ok(out)
}

/// Key column `pos` as an integer when every key column before it is
/// `INT`: each such column is a 9-byte segment, so the value is the 8
/// bytes after the tag at offset `9·pos`. The tag is checked.
pub fn key_int(key: &[u8], pos: usize) -> Result<i64> {
    let off = 9 * pos;
    match key.get(off..off + 9) {
        Some([KEY_TAG_INT, rest @ ..]) => {
            let raw = u64::from_be_bytes(rest.try_into().expect("slice is 8 bytes"));
            Ok((raw ^ (1u64 << 63)) as i64)
        }
        Some(_) => Err(Error::Corrupt(format!(
            "key column {pos} is not at its all-INT offset"
        ))),
        None => Err(Error::Corrupt("short index key".into())),
    }
}

// --- Rid codec ----------------------------------------------------------

/// Byte length of an encoded [`Rid`].
pub const RID_LEN: usize = 6;

/// Append the order-preserving 6-byte encoding of `rid`.
#[inline]
pub fn encode_rid(rid: Rid, out: &mut Vec<u8>) {
    out.extend_from_slice(&rid.page.raw().to_be_bytes());
    out.extend_from_slice(&rid.slot.to_be_bytes());
}

/// Decode a 6-byte rid.
pub fn decode_rid(bytes: &[u8]) -> Result<Rid> {
    if bytes.len() < RID_LEN {
        return Err(Error::Corrupt("truncated rid".into()));
    }
    let page = u32::from_be_bytes(bytes[..4].try_into().expect("4 bytes"));
    let slot = u16::from_be_bytes(bytes[4..6].try_into().expect("2 bytes"));
    Ok(Rid::new(PageId(page), slot))
}

// --- Record codec -------------------------------------------------------

/// Append one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bits: an exact round trip.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a boolean as a `0`/`1` tag byte.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Append a `u32` length or count.
///
/// # Panics
/// If `n` does not fit in a `u32`.
pub fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u32(
        out,
        u32::try_from(n).expect("length exceeds the record codec's u32"),
    );
}

/// Append a byte blob: its `u32` length, then the bytes. Decodes with
/// [`Reader::bytes`].
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_len(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Append a string as the blob of its UTF-8 bytes. Decodes with
/// [`Reader::str`].
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Append a blob whose body `write` appends straight into `out`; the
/// `u32` length is filled in afterwards, so the body is never staged in
/// a buffer of its own. Decodes with [`Reader::bytes`].
pub fn put_framed(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    put_u32(out, 0);
    write(out);
    let len = u32::try_from(out.len() - at - 4).expect("blob exceeds the record codec's u32");
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Append a list: its `u32` count, then every item as `put` writes it.
/// Decodes with [`Reader::list`].
pub fn put_list<I>(out: &mut Vec<u8>, items: I, mut put: impl FnMut(&mut Vec<u8>, I::Item))
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
{
    let items = items.into_iter();
    put_len(out, items.len());
    for item in items {
        put(out, item);
    }
}

/// Append an optional field: a `0` tag, or a `1` tag and the value as
/// `put` writes it. Decodes with [`Reader::opt`].
pub fn put_opt<T>(out: &mut Vec<u8>, v: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    put_bool(out, v.is_some());
    if let Some(v) = v {
        put(out, v);
    }
}

/// Append a value list: its count, then the values in the row codec as
/// one blob — written in place, from wherever the values live. Decodes
/// with [`Reader::values`].
pub fn put_values<'v>(out: &mut Vec<u8>, values: impl ExactSizeIterator<Item = &'v Value>) {
    put_len(out, values.len());
    put_framed(out, |out| values.for_each(|v| encode_value(v, out)));
}

/// Append one value as a one-value list. Decodes with [`Reader::value`].
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    put_values(out, std::iter::once(v));
}

/// Strict cursor over one record written with the `put_*` functions.
///
/// Every accessor fails with [`Error::Corrupt`] on truncation and
/// [`Reader::finish`] rejects trailing bytes; `what` names the record
/// in those messages.
pub struct Reader<'a> {
    buf: &'a [u8],
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`, a record described as `what`.
    pub fn new(buf: &'a [u8], what: &'static str) -> Reader<'a> {
        Reader { buf, what }
    }

    fn corrupt(&self, detail: std::fmt::Arguments<'_>) -> Error {
        Error::Corrupt(format!("{}: {detail}", self.what))
    }

    /// The next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(self.corrupt(format_args!(
                "truncated: need {n} bytes, have {}",
                self.buf.len()
            )));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// Consume `magic`, failing if the record does not start with it.
    pub fn magic(&mut self, magic: &[u8]) -> Result<()> {
        if self.take(magic.len())? != magic {
            return Err(self.corrupt(format_args!("bad magic")));
        }
        Ok(())
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `f64` from its IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `0`/`1` tag byte; any other byte is corrupt.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(self.corrupt(format_args!("bad tag byte {t:#x}"))),
        }
    }

    /// A blob written by [`put_bytes`] or [`put_framed`], borrowed.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// A string written by [`put_str`].
    pub fn str(&mut self) -> Result<String> {
        let bytes = self.bytes()?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(self.corrupt(format_args!("string is not UTF-8"))),
        }
    }

    /// A list written by [`put_list`], each item decoded by `item`.
    pub fn list<T>(&mut self, item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let n = self.u32()? as usize;
        self.items(n, item)
    }

    /// `n` items decoded by `item`, for a count the caller read itself.
    /// Every item occupies at least one byte, so at most one slot per
    /// remaining byte is reserved: a corrupt count fails on truncation
    /// instead of driving a huge allocation.
    pub fn items<T>(
        &mut self,
        n: usize,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let mut out = Vec::with_capacity(n.min(self.buf.len()));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// An optional field written by [`put_opt`].
    pub fn opt<T>(&mut self, item: impl FnOnce(&mut Self) -> Result<T>) -> Result<Option<T>> {
        if self.bool()? {
            item(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// A value list written by [`put_values`].
    pub fn values(&mut self) -> Result<Vec<Value>> {
        let count = self.u32()? as usize;
        let values = decode_row(self.bytes()?)?;
        if values.len() != count {
            return Err(self.corrupt(format_args!(
                "value list decodes to {} values, header says {count}",
                values.len()
            )));
        }
        Ok(values)
    }

    /// A single value written by [`put_values`] as a one-value list.
    pub fn value(&mut self) -> Result<Value> {
        let mut values = self.values()?;
        match (values.pop(), values.is_empty()) {
            (Some(v), true) => Ok(v),
            _ => Err(self.corrupt(format_args!("value list is not a singleton"))),
        }
    }

    /// End of the record: any byte left over is corrupt.
    pub fn finish(self) -> Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(self.corrupt(format_args!("{} trailing bytes", self.buf.len())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn row_roundtrip() {
        let row = vec![iv(-5), Value::from("héllo"), iv(i64::MAX), Value::from("")];
        let mut bytes = Vec::new();
        encode_row(&row, &mut bytes);
        assert_eq!(decode_row(&bytes).unwrap(), row);
    }

    #[test]
    fn row_view_projects_columns() {
        let row = vec![iv(10), Value::from("abc"), iv(30)];
        let mut bytes = Vec::new();
        encode_row(&row, &mut bytes);
        let view = RowView::new(&bytes);
        assert_eq!(view.int(0).unwrap(), 10);
        assert_eq!(view.value(1).unwrap(), Value::from("abc"));
        assert_eq!(view.int(2).unwrap(), 30);
        assert!(view.int(1).is_err(), "str column is not int");
        assert!(view.value(3).is_err(), "out of range column");
        let mut out = vec![iv(7)];
        decode_row_into(view.bytes(), &mut out).unwrap();
        assert_eq!(out, row, "decoding replaces the buffer's contents");
    }

    #[test]
    fn corrupt_rows_error_cleanly() {
        assert!(decode_row(&[0x01, 0x00]).is_err()); // short int
        assert!(decode_row(&[0x99]).is_err()); // bad tag
        assert!(decode_row(&[0x02, 0x05, 0x00, b'a']).is_err()); // short str
    }

    #[test]
    fn int_keys_order_preserving() {
        let samples = [i64::MIN, -1_000_000, -1, 0, 1, 42, 500_000, i64::MAX];
        for &a in &samples {
            for &b in &samples {
                let ka = encode_key(&[iv(a)]);
                let kb = encode_key(&[iv(b)]);
                assert_eq!(a.cmp(&b), ka.cmp(&kb), "order mismatch for {a} vs {b}");
            }
        }
    }

    #[test]
    fn str_keys_order_preserving_with_nuls() {
        let samples = ["", "a", "a\0", "a\0b", "a!", "ab", "b", "ba"];
        for a in samples {
            for b in samples {
                let ka = encode_key(&[Value::from(a)]);
                let kb = encode_key(&[Value::from(b)]);
                assert_eq!(a.cmp(b), ka.cmp(&kb), "order mismatch for {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn composite_key_prefix_property() {
        let full = encode_key(&[iv(7), Value::from("x")]);
        let prefix = encode_key(&[iv(7)]);
        assert!(full.starts_with(&prefix));
    }

    #[test]
    fn composite_key_order_is_lexicographic() {
        let k = |a: i64, b: i64| encode_key(&[iv(a), iv(b)]);
        assert!(k(1, 9) < k(2, 0));
        assert!(k(2, 0) < k(2, 1));
    }

    #[test]
    fn key_roundtrip() {
        let tuple = vec![iv(-3), Value::from("a\0b"), iv(99)];
        assert_eq!(decode_key(&encode_key(&tuple)).unwrap(), tuple);
    }

    #[test]
    fn rid_roundtrip_and_order() {
        let a = Rid::new(PageId(1), 65535);
        let b = Rid::new(PageId(2), 0);
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        encode_rid(a, &mut ea);
        encode_rid(b, &mut eb);
        assert_eq!(decode_rid(&ea).unwrap(), a);
        assert!(ea < eb, "rid encoding must preserve order");
        assert!(decode_rid(&[0, 1]).is_err());
    }

    /// One record exercising every writer, and its decoder.
    fn sample_record() -> Vec<u8> {
        let mut out = Vec::new();
        put_u8(&mut out, 3);
        put_u16(&mut out, 515);
        put_u32(&mut out, 70_000);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, -0.125);
        put_bool(&mut out, true);
        put_str(&mut out, "héllo");
        put_framed(&mut out, |o| o.extend_from_slice(b"body"));
        put_list(&mut out, [1u64, 2, 3], put_u64);
        put_opt(&mut out, Some(9u64), put_u64);
        put_opt(&mut out, None::<u64>, put_u64);
        put_values(&mut out, [iv(-5), Value::from("x")].iter());
        put_values(&mut out, std::iter::once(&iv(7)));
        out
    }

    fn read_sample(r: &mut Reader<'_>) -> Result<()> {
        assert_eq!(r.u8()?, 3);
        assert_eq!(r.u16()?, 515);
        assert_eq!(r.u32()?, 70_000);
        assert_eq!(r.u64()?, u64::MAX - 1);
        assert_eq!(r.f64()?, -0.125);
        assert!(r.bool()?);
        assert_eq!(r.str()?, "héllo");
        assert_eq!(r.bytes()?, b"body");
        assert_eq!(r.list(Reader::u64)?, [1, 2, 3]);
        assert_eq!(r.opt(Reader::u64)?, Some(9));
        assert_eq!(r.opt(Reader::u64)?, None);
        assert_eq!(r.values()?, [iv(-5), Value::from("x")]);
        assert_eq!(r.value()?, iv(7));
        Ok(())
    }

    #[test]
    fn records_round_trip() {
        let bytes = sample_record();
        let mut r = Reader::new(&bytes, "sample");
        read_sample(&mut r).unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn every_truncation_and_any_trailing_byte_is_corrupt() {
        let bytes = sample_record();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut], "sample");
            let err = read_sample(&mut r).and_then(|()| r.finish()).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "cut {cut}: {err}");
        }
        let mut long = bytes.clone();
        long.push(0);
        let mut r = Reader::new(&long, "sample");
        read_sample(&mut r).unwrap();
        match r.finish() {
            Err(Error::Corrupt(m)) => assert_eq!(m, "sample: 1 trailing bytes"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn tags_utf8_and_magic_are_strict() {
        assert!(Reader::new(&[2], "t").bool().is_err());
        assert!(Reader::new(&[2, 0], "t").opt(Reader::u8).is_err());
        let mut bad_utf8 = Vec::new();
        put_bytes(&mut bad_utf8, &[0xFF, 0xFE]);
        assert!(Reader::new(&bad_utf8, "t").str().is_err());
        assert!(Reader::new(b"cdpdxxx1", "t").magic(b"cdpdxxx2").is_err());
        assert!(Reader::new(b"cdpd", "t").magic(b"cdpdxxx2").is_err());
        Reader::new(b"cdpdxxx2", "t").magic(b"cdpdxxx2").unwrap();
        // A value list whose count disagrees with its body, and a
        // "single" value that is two.
        let mut lying = Vec::new();
        put_u32(&mut lying, 3);
        put_framed(&mut lying, |o| encode_row(&[iv(1)], o));
        assert!(Reader::new(&lying, "t").values().is_err());
        let mut two = Vec::new();
        put_values(&mut two, [iv(1), iv(2)].iter());
        assert!(Reader::new(&two, "t").value().is_err());
    }

    #[test]
    fn a_corrupt_count_fails_without_reserving_it() {
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX);
        put_u64(&mut out, 1);
        let mut r = Reader::new(&out, "t");
        // Four billion u64 slots would be 32 GiB; the reader reserves at
        // most one per remaining byte and fails on the second item.
        assert!(matches!(r.list(Reader::u64), Err(Error::Corrupt(_))));
    }
}
