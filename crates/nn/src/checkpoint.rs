//! Weight checkpointing: save/load a module's parameters to a simple
//! self-describing binary format (no external serialization deps).
//!
//! Format (little-endian): magic `b"INET"`, format version `u32`,
//! parameter count `u32`, then per parameter: name length `u32`, UTF-8
//! name bytes, rank `u32`, dims (`u64` each), and `f32` data. Version 2
//! appends a second section in the same record format holding module
//! *buffers* — non-trainable state such as `SwitchableBatchNorm` running
//! statistics — so an eval-mode model (and the integer engine prepacked
//! from it) is fully reconstructable from a checkpoint. Version 3 appends
//! a CRC32 (IEEE, reflected) of each section's bytes immediately after
//! the section, so silent corruption — a flipped bit in weight data that
//! still parses — is detected at load time instead of becoming garbage
//! weights. Version 1 (params only) and version 2 (no checksums) files
//! remain readable.

use crate::Module;
use instantnet_tensor::Tensor;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"INET";
const VERSION: u32 = 3;

/// CRC32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) of `bytes`
/// continued from a running `state` (start from [`CRC32_INIT`], finish by
/// inverting). Bitwise — checkpoint I/O is dominated by tensor data reads,
/// not the checksum.
const CRC32_INIT: u32 = 0xFFFF_FFFF;

/// One-shot CRC32 (the checkpoint-v3 polynomial) over `bytes` — the
/// fingerprint the model registry stores per published version, so a
/// served model is always traceable to the exact checkpoint file bytes
/// it came from.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(CRC32_INIT, bytes)
}

fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state ^= u32::from(b);
        for _ in 0..8 {
            let mask = (state & 1).wrapping_neg();
            state = (state >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    state
}

/// `Read` adapter folding every byte it yields into a running CRC32.
struct Crc32Reader<'a, R: Read> {
    inner: &'a mut R,
    state: u32,
}

impl<'a, R: Read> Crc32Reader<'a, R> {
    fn new(inner: &'a mut R) -> Self {
        Crc32Reader {
            inner,
            state: CRC32_INIT,
        }
    }

    fn finish(&self) -> u32 {
        !self.state
    }
}

impl<R: Read> Read for Crc32Reader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.state = crc32_update(self.state, &buf[..n]);
        Ok(n)
    }
}

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Missing or wrong magic/version header.
    BadHeader,
    /// File data was malformed (truncated, bad UTF-8, absurd sizes).
    Corrupt(&'static str),
    /// A parameter in the file has no counterpart in the module, or the
    /// shapes disagree.
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::BadHeader => write!(f, "not an InstantNet checkpoint"),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::Mismatch(name) => write!(f, "parameter mismatch for '{name}'"),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn write_section(w: &mut impl Write, records: &[(String, Tensor)]) -> Result<(), CheckpointError> {
    w.write_all(&(records.len() as u32).to_le_bytes())?;
    for (name, value) in records {
        let name = name.as_bytes();
        w.write_all(&(name.len() as u32).to_le_bytes())?;
        w.write_all(name)?;
        let dims = value.dims();
        w.write_all(&(dims.len() as u32).to_le_bytes())?;
        for &d in dims {
            w.write_all(&(d as u64).to_le_bytes())?;
        }
        for v in value.data() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Saves every parameter and buffer of `module` to `path`.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on filesystem failures.
pub fn save(module: &dyn Module, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let params: Vec<(String, Tensor)> = module
        .params()
        .iter()
        .map(|p| (p.name().to_string(), p.var().value()))
        .collect();
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    write_section_checksummed(&mut w, &params)?;
    write_section_checksummed(&mut w, &module.buffers())?;
    w.flush()?;
    Ok(())
}

/// Writes one section followed by the CRC32 of its bytes (version ≥ 3).
fn write_section_checksummed(
    w: &mut impl Write,
    records: &[(String, Tensor)],
) -> Result<(), CheckpointError> {
    let mut buf = Vec::new();
    write_section(&mut buf, records)?;
    w.write_all(&buf)?;
    w.write_all(&(!crc32_update(CRC32_INIT, &buf)).to_le_bytes())?;
    Ok(())
}

fn read_u32(r: &mut impl Read) -> Result<u32, CheckpointError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> Result<u64, CheckpointError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_section(
    r: &mut impl Read,
    what: &'static str,
) -> Result<HashMap<String, Tensor>, CheckpointError> {
    let count = read_u32(r)? as usize;
    let mut out = HashMap::with_capacity(count);
    for _ in 0..count {
        let name_len = read_u32(r)? as usize;
        if name_len > 4096 {
            return Err(CheckpointError::Corrupt("tensor name too long"));
        }
        let mut name_bytes = vec![0u8; name_len];
        r.read_exact(&mut name_bytes)?;
        let name = String::from_utf8(name_bytes)
            .map_err(|_| CheckpointError::Corrupt("non-UTF-8 tensor name"))?;
        let rank = read_u32(r)? as usize;
        if rank > 8 {
            return Err(CheckpointError::Corrupt("rank too large"));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(read_u64(r)? as usize);
        }
        let n: usize = dims.iter().product();
        if n > 1 << 28 {
            return Err(CheckpointError::Corrupt(what));
        }
        let mut data = vec![0.0f32; n];
        for v in data.iter_mut() {
            let mut b = [0u8; 4];
            r.read_exact(&mut b)?;
            *v = f32::from_le_bytes(b);
        }
        out.insert(name, Tensor::from_vec(dims, data));
    }
    Ok(out)
}

type Sections = (HashMap<String, Tensor>, HashMap<String, Tensor>);

/// Reads a checkpoint's parameter and buffer sections (buffers empty for
/// version-1 files).
fn read_sections(path: impl AsRef<Path>) -> Result<Sections, CheckpointError> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::BadHeader);
    }
    let version = read_u32(&mut r)?;
    if !(1..=VERSION).contains(&version) {
        return Err(CheckpointError::BadHeader);
    }
    let params = read_section_checked(&mut r, version, "parameter tensor too large")?;
    let buffers = if version >= 2 {
        read_section_checked(&mut r, version, "buffer tensor too large")?
    } else {
        HashMap::new()
    };
    Ok((params, buffers))
}

/// Reads one section, verifying the trailing CRC32 for version ≥ 3 files
/// (earlier versions carry no checksum).
fn read_section_checked(
    r: &mut impl Read,
    version: u32,
    what: &'static str,
) -> Result<HashMap<String, Tensor>, CheckpointError> {
    if version < 3 {
        return read_section(r, what);
    }
    let mut hr = Crc32Reader::new(r);
    let out = read_section(&mut hr, what)?;
    let computed = hr.finish();
    let stored = read_u32(r)?;
    if computed != stored {
        return Err(CheckpointError::Corrupt("section checksum mismatch"));
    }
    Ok(out)
}

/// Reads a checkpoint's parameters into a name → tensor map.
///
/// # Errors
///
/// Returns header/corruption errors for malformed files.
pub fn read_tensors(path: impl AsRef<Path>) -> Result<HashMap<String, Tensor>, CheckpointError> {
    Ok(read_sections(path)?.0)
}

/// Loads a checkpoint into `module`, matching parameters and buffers by
/// name.
///
/// # Errors
///
/// Returns [`CheckpointError::Mismatch`] if any module parameter is absent
/// from the file, has a different shape, or a stored buffer is rejected by
/// the module; file I/O and format errors propagate. Version-1 files carry
/// no buffers, so running statistics keep their in-memory values.
pub fn load(module: &dyn Module, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let (mut tensors, buffers) = read_sections(path)?;
    for p in module.params() {
        let Some(t) = tensors.remove(p.name()) else {
            return Err(CheckpointError::Mismatch(p.name().to_string()));
        };
        if t.dims() != p.var().value().dims() {
            return Err(CheckpointError::Mismatch(p.name().to_string()));
        }
        p.var().set_value(t);
    }
    for (name, t) in &buffers {
        if !module.set_buffer(name, t) {
            return Err(CheckpointError::Mismatch(name.clone()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use crate::ForwardCtx;
    use instantnet_quant::{BitWidthSet, Quantizer};
    use instantnet_tensor::Var;

    /// A temp file named per process: concurrent runs of this suite must
    /// not share it.
    fn tmp(name: &str) -> std::path::PathBuf {
        let pid = std::process::id();
        std::env::temp_dir().join(format!("instantnet-ckpt-{pid}-{name}"))
    }

    #[test]
    fn roundtrip_restores_outputs() {
        let bits = BitWidthSet::new(vec![4, 32]).unwrap();
        let a = models::small_cnn(4, 5, (6, 6), bits.len(), 1);
        let path = tmp("roundtrip.bin");
        save(&a, &path).unwrap();
        // A differently initialized clone of the same topology.
        let b = models::small_cnn(4, 5, (6, 6), bits.len(), 2);
        use rand::SeedableRng;
        let x = Var::constant(instantnet_tensor::init::uniform(
            &mut rand::rngs::StdRng::seed_from_u64(3),
            &[1, 3, 6, 6],
            -1.0,
            1.0,
        ));
        let fwd = |net: &models::Network| {
            let mut ctx = ForwardCtx::train(&bits, 0, Quantizer::Sbm);
            net.forward(&x, &mut ctx).value()
        };
        assert_ne!(fwd(&a), fwd(&b), "different seeds differ");
        load(&b, &path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(fwd(&a), fwd(&b), "loaded weights reproduce outputs");
    }

    #[test]
    fn load_rejects_wrong_topology() {
        let a = models::small_cnn(4, 5, (6, 6), 1, 1);
        let path = tmp("wrong-topo.bin");
        save(&a, &path).unwrap();
        let wider = models::small_cnn(8, 5, (6, 6), 1, 1);
        let err = load(&wider, &path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    }

    #[test]
    fn load_rejects_garbage_file() {
        let path = tmp("garbage.bin");
        std::fs::write(&path, b"definitely not a checkpoint").unwrap();
        let net = models::small_cnn(4, 5, (6, 6), 1, 1);
        let err = load(&net, &path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(
            matches!(err, CheckpointError::BadHeader | CheckpointError::Io(_)),
            "{err}"
        );
    }

    #[test]
    fn read_tensors_exposes_names() {
        let net = models::small_cnn(4, 5, (6, 6), 2, 1);
        let path = tmp("names.bin");
        save(&net, &path).unwrap();
        let tensors = read_tensors(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(tensors.len(), net.params().len());
        assert!(tensors.keys().any(|k| k.contains("classifier")));
        assert!(tensors.keys().any(|k| k.contains("gamma")));
    }

    #[test]
    fn bn_running_stats_survive_roundtrip() {
        use rand::SeedableRng;
        let bits = BitWidthSet::new(vec![4, 8, 32]).unwrap();
        let a = models::small_cnn(4, 5, (6, 6), bits.len(), 1);
        let x = Var::constant(instantnet_tensor::init::uniform(
            &mut rand::rngs::StdRng::seed_from_u64(5),
            &[4, 3, 6, 6],
            -1.0,
            1.0,
        ));
        // Seed distinct running stats per branch with train passes.
        for i in 0..bits.len() {
            let mut ctx = ForwardCtx::train(&bits, i, Quantizer::Sbm);
            a.forward(&x, &mut ctx);
        }
        let path = tmp("bn-stats.bin");
        save(&a, &path).unwrap();
        let b = models::small_cnn(4, 5, (6, 6), bits.len(), 2);
        load(&b, &path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let (ba, bb) = (a.buffers(), b.buffers());
        assert!(!ba.is_empty(), "small_cnn must expose BN buffers");
        assert_eq!(ba.len(), bb.len());
        for ((na, ta), (nb, tb)) in ba.iter().zip(&bb) {
            assert_eq!(na, nb);
            assert_eq!(ta.data(), tb.data(), "buffer {na} differs after load");
        }
        // Eval-mode forwards (which read running stats) now agree too.
        for i in 0..bits.len() {
            let ya = a
                .forward(&x, &mut ForwardCtx::eval(&bits, i, Quantizer::Sbm))
                .value();
            let yb = b
                .forward(&x, &mut ForwardCtx::eval(&bits, i, Quantizer::Sbm))
                .value();
            assert_eq!(ya, yb, "eval outputs differ at bit index {i}");
        }
    }

    #[test]
    fn version1_params_only_file_still_loads() {
        use std::io::Write as _;
        let net = models::small_cnn(4, 5, (6, 6), 2, 1);
        let params: Vec<(String, Tensor)> = net
            .params()
            .iter()
            .map(|p| (p.name().to_string(), p.var().value()))
            .collect();
        let path = tmp("v1.bin");
        let mut w = BufWriter::new(File::create(&path).unwrap());
        w.write_all(MAGIC).unwrap();
        w.write_all(&1u32.to_le_bytes()).unwrap();
        write_section(&mut w, &params).unwrap();
        w.flush().unwrap();
        drop(w);
        let other = models::small_cnn(4, 5, (6, 6), 2, 2);
        load(&other, &path).unwrap();
        assert_eq!(read_tensors(&path).unwrap().len(), params.len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crc32_known_answer() {
        // IEEE CRC32 of "123456789" — the standard check value.
        assert_eq!(!crc32_update(CRC32_INIT, b"123456789"), 0xCBF4_3926);
        assert_eq!(!crc32_update(CRC32_INIT, b""), 0);
        // Incremental updates equal one-shot.
        let once = !crc32_update(CRC32_INIT, b"hello world");
        let split = !crc32_update(crc32_update(CRC32_INIT, b"hello "), b"world");
        assert_eq!(once, split);
    }

    #[test]
    fn bit_flip_reported_as_corrupt_not_garbage_weights() {
        let net = models::small_cnn(4, 5, (6, 6), 2, 1);
        let path = tmp("bit-flip.bin");
        save(&net, &path).unwrap();
        // Flip one bit inside the last section's tensor data (the file
        // tail is `…f32 data, crc32`), where the record structure still
        // parses fine — only the checksum can catch it.
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = bytes.len() - 6;
        bytes[victim] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let other = models::small_cnn(4, 5, (6, 6), 2, 3);
        let err = load(&other, &path).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Corrupt("section checksum mismatch")),
            "expected checksum failure, got: {err}"
        );
        // Restoring the bit makes the file load again.
        bytes[victim] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        load(&other, &path).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v2_unchecksummed_file_still_loads() {
        use std::io::Write as _;
        let net = models::small_cnn(4, 5, (6, 6), 2, 1);
        let params: Vec<(String, Tensor)> = net
            .params()
            .iter()
            .map(|p| (p.name().to_string(), p.var().value()))
            .collect();
        let path = tmp("v2.bin");
        let mut w = BufWriter::new(File::create(&path).unwrap());
        w.write_all(MAGIC).unwrap();
        w.write_all(&2u32.to_le_bytes()).unwrap();
        write_section(&mut w, &params).unwrap();
        write_section(&mut w, &net.buffers()).unwrap();
        w.flush().unwrap();
        drop(w);
        let other = models::small_cnn(4, 5, (6, 6), 2, 2);
        load(&other, &path).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let net = models::small_cnn(4, 5, (6, 6), 1, 1);
        let err = load(&net, tmp("does-not-exist.bin")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}
