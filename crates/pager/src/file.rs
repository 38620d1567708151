//! Raw byte-addressed backing files and crash-fault injection.
//!
//! The pager speaks to its data and journal files through [`RawFile`], a
//! positional-I/O trait small enough to wrap: [`DiskFile`] is the real
//! thing, [`MemFile`] a shared in-RAM byte vector (crash tests "reopen"
//! the surviving bytes without touching disk), and [`FaultFile`] a
//! write-budget wrapper that *tears* the write on which the budget runs
//! out — the disk dies mid-sector, exactly the failure the undo journal
//! must mask.

use std::cell::RefCell;
use std::fs;
use std::io;
use std::path::Path;
use std::rc::Rc;

/// Positional file I/O as the pager consumes it.
///
/// Reads past the current end of file zero-fill the remainder of the
/// buffer (a page that was allocated but never written reads as zeroes);
/// writes past the end extend the file.
pub trait RawFile {
    /// Current length in bytes.
    fn len(&self) -> io::Result<u64>;

    /// Whether the file is empty (a fresh store).
    fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Reads `buf.len()` bytes at `off`, zero-filling past EOF.
    fn read_at(&self, buf: &mut [u8], off: u64) -> io::Result<()>;

    /// Writes all of `buf` at `off`, extending the file as needed.
    fn write_at(&mut self, buf: &[u8], off: u64) -> io::Result<()>;

    /// Truncates (or extends with zeroes) to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;

    /// Durably flushes everything written so far.
    fn sync(&mut self) -> io::Result<()>;
}

/// A [`RawFile`] over a real [`fs::File`].
#[derive(Debug)]
pub struct DiskFile {
    file: fs::File,
}

impl DiskFile {
    /// Opens (creating if absent) the file at `path` for read/write.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(DiskFile { file })
    }
}

impl RawFile for DiskFile {
    fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn read_at(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        use std::os::unix::fs::FileExt as _;
        let mut done = 0;
        while done < buf.len() {
            match self.file.read_at(&mut buf[done..], off + done as u64) {
                Ok(0) => break, // EOF: zero-fill the tail
                Ok(n) => done += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        buf[done..].fill(0);
        Ok(())
    }

    fn write_at(&mut self, buf: &[u8], off: u64) -> io::Result<()> {
        use std::os::unix::fs::FileExt as _;
        self.file.write_all_at(buf, off)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// An in-memory [`RawFile`] whose bytes are shared between handles.
///
/// [`MemFile::handle`] clones survive the "crash" of whoever held the
/// original: a test opens a pager over one handle, lets fault injection
/// kill it, drops the pager (losing all its in-RAM cache state), and
/// reopens a second pager over the surviving bytes — the moral equivalent
/// of a process restart over the same disk.
#[derive(Debug, Clone, Default)]
pub struct MemFile {
    bytes: Rc<RefCell<Vec<u8>>>,
}

impl MemFile {
    /// A fresh, empty file.
    pub fn new() -> Self {
        MemFile::default()
    }

    /// Another handle onto the same bytes.
    pub fn handle(&self) -> MemFile {
        self.clone()
    }
}

impl RawFile for MemFile {
    fn len(&self) -> io::Result<u64> {
        Ok(self.bytes.borrow().len() as u64)
    }

    fn read_at(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        let bytes = self.bytes.borrow();
        let off = off as usize;
        let avail = bytes.len().saturating_sub(off);
        let n = buf.len().min(avail);
        buf[..n].copy_from_slice(&bytes[off..off + n]);
        buf[n..].fill(0);
        Ok(())
    }

    fn write_at(&mut self, buf: &[u8], off: u64) -> io::Result<()> {
        let mut bytes = self.bytes.borrow_mut();
        let end = off as usize + buf.len();
        if bytes.len() < end {
            bytes.resize(end, 0);
        }
        bytes[off as usize..end].copy_from_slice(buf);
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.bytes.borrow_mut().resize(len as usize, 0);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Shared write budget for [`FaultFile`]s.
///
/// One clock is cloned into both the data-file and journal-file wrappers
/// of a pager, so "fail after N writes" counts every write the pager
/// issues, wherever it lands. Once the budget is exhausted the simulated
/// disk is dead: every subsequent write and sync fails.
#[derive(Debug, Clone)]
pub struct FaultClock {
    remaining: Rc<RefCell<u64>>,
    tripped: Rc<RefCell<bool>>,
}

impl FaultClock {
    /// A clock allowing `budget` successful writes before the fault.
    pub fn new(budget: u64) -> Self {
        FaultClock {
            remaining: Rc::new(RefCell::new(budget)),
            tripped: Rc::new(RefCell::new(false)),
        }
    }

    /// Whether the fault has fired.
    pub fn tripped(&self) -> bool {
        *self.tripped.borrow()
    }

    fn injected() -> io::Error {
        io::Error::other("injected write fault")
    }

    /// Accounts one write of `len` bytes. Returns how many bytes of it
    /// actually reach the medium: all of them while the budget lasts, a
    /// torn prefix on the write that exhausts it, nothing after.
    fn admit(&self, len: usize) -> Result<usize, io::Error> {
        if *self.tripped.borrow() {
            return Err(Self::injected());
        }
        let mut rem = self.remaining.borrow_mut();
        if *rem == 0 {
            *self.tripped.borrow_mut() = true;
            // The dying write tears: only half the bytes land.
            return Ok(len / 2);
        }
        *rem -= 1;
        Ok(len)
    }
}

/// A [`RawFile`] wrapper that injects a torn write after a budget of
/// successful writes, then fails everything — the crash half of the
/// model-differential/crash-injection harness (ISSUE satellite: the
/// `FaultStore` wrapper is a pager opened over two of these sharing one
/// [`FaultClock`]).
#[derive(Debug)]
pub struct FaultFile<F: RawFile> {
    inner: F,
    clock: FaultClock,
}

impl<F: RawFile> FaultFile<F> {
    /// Wraps `inner`, charging writes against `clock`.
    pub fn new(inner: F, clock: FaultClock) -> Self {
        FaultFile { inner, clock }
    }
}

impl<F: RawFile> RawFile for FaultFile<F> {
    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn read_at(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        self.inner.read_at(buf, off)
    }

    fn write_at(&mut self, buf: &[u8], off: u64) -> io::Result<()> {
        match self.clock.admit(buf.len())? {
            n if n == buf.len() => self.inner.write_at(buf, off),
            torn => {
                // Write the torn prefix, then report the disk dead.
                self.inner.write_at(&buf[..torn], off)?;
                Err(io::Error::other("injected torn write"))
            }
        }
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        if self.clock.tripped() {
            return Err(io::Error::other("injected write fault"));
        }
        self.inner.set_len(len)
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.clock.tripped() {
            return Err(io::Error::other("injected write fault"));
        }
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memfile_zero_fills_and_extends() {
        let mut f = MemFile::new();
        let mut buf = [1u8; 8];
        f.read_at(&mut buf, 0).unwrap();
        assert_eq!(buf, [0; 8], "EOF reads zero-fill");
        f.write_at(&[7, 7], 10).unwrap();
        assert_eq!(f.len().unwrap(), 12, "write extends");
        f.read_at(&mut buf, 6).unwrap();
        assert_eq!(buf, [0, 0, 0, 0, 7, 7, 0, 0]);
        f.set_len(11).unwrap();
        assert_eq!(f.len().unwrap(), 11);
    }

    #[test]
    fn memfile_handles_share_bytes() {
        let mut a = MemFile::new();
        let b = a.handle();
        a.write_at(&[9], 0).unwrap();
        let mut buf = [0u8; 1];
        b.read_at(&mut buf, 0).unwrap();
        assert_eq!(buf, [9], "handle sees writes through the original");
    }

    #[test]
    fn fault_clock_tears_the_fatal_write_then_kills_the_disk() {
        let clock = FaultClock::new(2);
        let mut f = FaultFile::new(MemFile::new(), clock.clone());
        f.write_at(&[1; 4], 0).unwrap();
        f.write_at(&[2; 4], 4).unwrap();
        assert!(!clock.tripped());
        // Third write exhausts the budget: half of it lands, then error.
        let err = f.write_at(&[3; 4], 8).unwrap_err();
        assert!(err.to_string().contains("torn"));
        assert!(clock.tripped());
        let mut buf = [0u8; 12];
        f.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf[..8], &[1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(&buf[8..], &[3, 3, 0, 0], "torn prefix only");
        // Everything after is dead.
        assert!(f.write_at(&[4], 0).is_err());
        assert!(f.sync().is_err());
    }

    #[test]
    fn diskfile_roundtrip() {
        let path = std::env::temp_dir().join(format!(
            "oic-pager-filetest-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = fs::remove_file(&path);
        {
            let mut f = DiskFile::open(&path).unwrap();
            assert!(f.is_empty().unwrap());
            f.write_at(&[5; 16], 32).unwrap();
            f.sync().unwrap();
            let mut buf = [9u8; 8];
            f.read_at(&mut buf, 44).unwrap();
            assert_eq!(buf, [5, 5, 5, 5, 0, 0, 0, 0], "EOF tail zero-filled");
        }
        {
            let f = DiskFile::open(&path).unwrap();
            assert_eq!(f.len().unwrap(), 48, "contents survive reopen");
        }
        let _ = fs::remove_file(&path);
    }
}
