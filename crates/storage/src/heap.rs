//! Heap segment files: fixed-capacity page files, the on-disk unit of a stream table.
//!
//! A persistent table used to be one ever-growing `.tbl` file; it is now a
//! [`crate::segment::SegmentedHeap`] — an ordered sequence of `HeapFile` segments, each a
//! [`PAGE_SIZE`]-byte header region followed by up to a fixed
//! number of data pages.  The header carries the table schema plus the segment's place in
//! the table: `first_row` (the global index of the first row stored here, which also
//! pins the exact sequence→row mapping, since sequences are contiguous from 1),
//! `segment_id` (monotonic allocation order), `replaces` (crash-safe compaction
//! hand-over) and the prune `watermark` persisted at the last checkpoint.
//!
//! Only the *tail* segment of a table is ever written; sealed segments are immutable
//! until the retention pass deletes or compacts them, which is what lets long-lived
//! bounded tables reclaim file space instead of growing forever.
//!
//! Torn tail writes are tolerated: [`HeapFile::open`] validates pages front to back and
//! truncates at the first corrupt page — every row lost that way is still in the
//! write-ahead log (see `wal`) and gets replayed by recovery.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gsn_types::{codec, GsnError, GsnResult, StreamSchema};

use crate::buffer::PageIo;
use crate::page::{Page, PageId, PAGE_SIZE};

const MAGIC: &[u8; 8] = b"GSNHEAP2";
const VERSION: u32 = 2;

/// One heap segment: a bounded page file belonging to a stream table.
#[derive(Debug)]
pub struct HeapFile {
    file: File,
    path: PathBuf,
    schema: Arc<StreamSchema>,
    page_count: PageId,
    /// Global index of the first row whose data starts in this segment.
    first_row: u64,
    /// Monotonic allocation id within the owning table (starts at 1).
    segment_id: u32,
    /// Segment id this segment supersedes (compaction hand-over), 0 = none.
    replaces: u32,
    /// Prune watermark persisted at the last checkpoint (rows logically removed from
    /// the front of the *table*, in global row numbering).
    watermark: u64,
}

impl HeapFile {
    /// Creates a brand-new segment file at `path` (fails if it already exists).
    pub fn create(
        path: &Path,
        schema: Arc<StreamSchema>,
        segment_id: u32,
        first_row: u64,
        replaces: u32,
    ) -> GsnResult<HeapFile> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(|e| GsnError::storage(format!("cannot create segment file {path:?}: {e}")))?;
        let mut heap = HeapFile {
            file,
            path: path.to_owned(),
            schema,
            page_count: 0,
            first_row,
            segment_id,
            replaces,
            watermark: 0,
        };
        heap.write_header()?;
        Ok(heap)
    }

    /// Opens an existing segment file, validating magic, version and schema, and
    /// truncating the in-memory page count at the first torn/corrupt page.
    pub fn open(path: &Path, schema: Arc<StreamSchema>) -> GsnResult<HeapFile> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| GsnError::storage(format!("cannot open segment file {path:?}: {e}")))?;
        let mut heap = HeapFile {
            file,
            path: path.to_owned(),
            schema,
            page_count: 0,
            first_row: 0,
            segment_id: 0,
            replaces: 0,
            watermark: 0,
        };
        heap.read_header()?;
        heap.discover_pages()?;
        Ok(heap)
    }

    /// The table schema stored in the header.
    pub fn schema(&self) -> &Arc<StreamSchema> {
        &self.schema
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of data pages.
    pub fn page_count(&self) -> PageId {
        self.page_count
    }

    /// Global index of the first row stored in this segment.
    pub fn first_row(&self) -> u64 {
        self.first_row
    }

    /// The segment's allocation id within its table.
    pub fn segment_id(&self) -> u32 {
        self.segment_id
    }

    /// The segment id this one supersedes (0 = none): set by compaction so that a crash
    /// between writing the replacement and deleting the original resolves to the
    /// replacement on the next open.
    pub fn replaces(&self) -> u32 {
        self.replaces
    }

    /// The prune watermark persisted at the last checkpoint.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Updates the persisted prune watermark (written to the header immediately).
    pub fn set_watermark(&mut self, watermark: u64) -> GsnResult<()> {
        self.watermark = watermark;
        self.write_header()
    }

    /// Current file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.file.metadata().map(|m| m.len()).unwrap_or(0)
    }

    /// Renames the underlying file (the compaction tmp→final hand-over; `rename` is
    /// atomic on POSIX filesystems).
    pub fn persist_as(&mut self, new_path: &Path) -> GsnResult<()> {
        std::fs::rename(&self.path, new_path).map_err(|e| {
            GsnError::storage(format!(
                "cannot rename segment {:?} to {new_path:?}: {e}",
                self.path
            ))
        })?;
        self.path = new_path.to_owned();
        Ok(())
    }

    fn write_header(&mut self) -> GsnResult<()> {
        let mut header = Vec::with_capacity(PAGE_SIZE);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        header.extend_from_slice(&self.segment_id.to_le_bytes());
        header.extend_from_slice(&self.replaces.to_le_bytes());
        header.extend_from_slice(&self.first_row.to_le_bytes());
        header.extend_from_slice(&self.watermark.to_le_bytes());
        let schema_bytes = codec::encode_schema(&self.schema);
        header.extend_from_slice(&(schema_bytes.len() as u32).to_le_bytes());
        header.extend_from_slice(&schema_bytes);
        if header.len() > PAGE_SIZE {
            return Err(GsnError::storage(format!(
                "schema of segment file {:?} does not fit the header page",
                self.path
            )));
        }
        header.resize(PAGE_SIZE, 0);
        self.file
            .seek(SeekFrom::Start(0))
            .and_then(|_| self.file.write_all(&header))
            .map_err(|e| GsnError::storage(format!("cannot write segment header: {e}")))
    }

    fn read_header(&mut self) -> GsnResult<()> {
        let mut header = vec![0u8; PAGE_SIZE];
        self.file
            .seek(SeekFrom::Start(0))
            .and_then(|_| self.file.read_exact(&mut header))
            .map_err(|e| GsnError::storage(format!("cannot read segment header: {e}")))?;
        if &header[0..8] != MAGIC {
            return Err(GsnError::storage(format!(
                "{:?} is not a GSN heap segment (bad magic)",
                self.path
            )));
        }
        let mut cursor: &[u8] = &header[8..];
        let version = u32::from_le_bytes(cursor[0..4].try_into().unwrap());
        let page_size = u32::from_le_bytes(cursor[4..8].try_into().unwrap());
        if version != VERSION || page_size as usize != PAGE_SIZE {
            return Err(GsnError::storage(format!(
                "unsupported segment file {:?}: version {version}, page size {page_size}",
                self.path
            )));
        }
        self.segment_id = u32::from_le_bytes(cursor[8..12].try_into().unwrap());
        self.replaces = u32::from_le_bytes(cursor[12..16].try_into().unwrap());
        self.first_row = u64::from_le_bytes(cursor[16..24].try_into().unwrap());
        self.watermark = u64::from_le_bytes(cursor[24..32].try_into().unwrap());
        let schema_len = u32::from_le_bytes(cursor[32..36].try_into().unwrap()) as usize;
        cursor = &cursor[36..];
        if schema_len > cursor.len() {
            return Err(GsnError::storage("corrupt segment header: schema overruns"));
        }
        let mut schema_cursor = &cursor[..schema_len];
        let stored = codec::decode_schema(&mut schema_cursor)?;
        if !stored.is_compatible_with(&self.schema) {
            return Err(GsnError::storage(format!(
                "segment file {:?} stores schema {} but table declares {}",
                self.path, stored, self.schema
            )));
        }
        Ok(())
    }

    /// Scans data pages front to back, stopping (and truncating the in-memory page
    /// count) at the first torn/corrupt page.
    fn discover_pages(&mut self) -> GsnResult<()> {
        let file_len = self
            .file
            .metadata()
            .map_err(|e| GsnError::storage(format!("cannot stat segment file: {e}")))?
            .len() as usize;
        let full_pages = file_len.saturating_sub(PAGE_SIZE) / PAGE_SIZE;
        let mut valid: PageId = 0;
        for id in 0..full_pages as PageId {
            match self.read_page_raw(id) {
                Ok(_) => valid = id + 1,
                Err(_) => break,
            }
        }
        self.page_count = valid;
        Ok(())
    }

    fn page_offset(id: PageId) -> u64 {
        (PAGE_SIZE as u64) * (1 + id as u64)
    }

    fn read_page_raw(&mut self, id: PageId) -> GsnResult<Page> {
        let mut bytes = [0u8; PAGE_SIZE];
        self.file
            .seek(SeekFrom::Start(Self::page_offset(id)))
            .and_then(|_| self.file.read_exact(&mut bytes))
            .map_err(|e| GsnError::storage(format!("cannot read page {id}: {e}")))?;
        Page::from_bytes(bytes)
    }

    /// Flushes file contents and metadata to stable storage.
    pub fn sync(&mut self) -> GsnResult<()> {
        self.file
            .sync_data()
            .map_err(|e| GsnError::storage(format!("cannot sync segment file: {e}")))
    }

    /// Deletes the file from disk (segment reclaimed / table dropped). Consumes the
    /// segment and returns the bytes freed.
    pub fn destroy(self) -> GsnResult<u64> {
        let path = self.path.clone();
        let bytes = self.file_bytes();
        drop(self);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(GsnError::storage(format!(
                "cannot remove segment file {path:?}: {e}"
            ))),
        }
    }
}

impl PageIo for HeapFile {
    fn read_page(&mut self, id: PageId) -> GsnResult<Page> {
        if id >= self.page_count {
            return Err(GsnError::storage(format!(
                "page {id} out of range ({} pages)",
                self.page_count
            )));
        }
        self.read_page_raw(id)
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> GsnResult<()> {
        if id > self.page_count {
            return Err(GsnError::storage(format!(
                "cannot write page {id} beyond tail ({} pages)",
                self.page_count
            )));
        }
        self.file
            .seek(SeekFrom::Start(Self::page_offset(id)))
            .and_then(|_| self.file.write_all(&page.as_bytes()[..]))
            .map_err(|e| GsnError::storage(format!("cannot write page {id}: {e}")))?;
        if id == self.page_count {
            self.page_count += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsn_types::DataType;

    fn schema() -> Arc<StreamSchema> {
        Arc::new(StreamSchema::from_pairs(&[("v", DataType::Integer)]).unwrap())
    }

    fn temp_path(tag: &str) -> PathBuf {
        crate::testutil::temp_dir(tag).join("seg-00000001.seg")
    }

    #[test]
    fn create_then_reopen_preserves_pages_and_header() {
        let path = temp_path("heap-reopen");
        {
            let mut heap = HeapFile::create(&path, schema(), 3, 120, 2).unwrap();
            let mut page = Page::new();
            page.append(b"r0").unwrap();
            heap.write_page(0, &page).unwrap();
            let mut page1 = Page::new();
            page1.append(b"r1").unwrap();
            heap.write_page(1, &page1).unwrap();
            heap.set_watermark(77).unwrap();
            heap.sync().unwrap();
        }
        let mut heap = HeapFile::open(&path, schema()).unwrap();
        assert_eq!(heap.page_count(), 2);
        assert_eq!(heap.segment_id(), 3);
        assert_eq!(heap.first_row(), 120);
        assert_eq!(heap.replaces(), 2);
        assert_eq!(heap.watermark(), 77);
        assert_eq!(heap.read_page(1).unwrap().record(0), Some(&b"r1"[..]));
        assert!(heap.read_page(2).is_err());
        assert!(heap.file_bytes() >= 3 * PAGE_SIZE as u64);
    }

    #[test]
    fn create_refuses_to_clobber_and_open_requires_existing() {
        let path = temp_path("heap-exists");
        drop(HeapFile::create(&path, schema(), 1, 0, 0).unwrap());
        assert!(HeapFile::create(&path, schema(), 2, 0, 0).is_err());
        assert!(HeapFile::open(&path.with_extension("missing"), schema()).is_err());
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let path = temp_path("heap-schema");
        drop(HeapFile::create(&path, schema(), 1, 0, 0).unwrap());
        let other = Arc::new(StreamSchema::from_pairs(&[("w", DataType::Double)]).unwrap());
        assert!(HeapFile::open(&path, other).is_err());
    }

    #[test]
    fn torn_tail_page_is_truncated_on_open() {
        let path = temp_path("heap-torn");
        {
            let mut heap = HeapFile::create(&path, schema(), 1, 0, 0).unwrap();
            let mut page = Page::new();
            page.append(b"good").unwrap();
            heap.write_page(0, &page).unwrap();
            heap.sync().unwrap();
        }
        // Append half a garbage page, as a crash mid-write would.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xFF; PAGE_SIZE / 2]).unwrap();
        }
        let heap = HeapFile::open(&path, schema()).unwrap();
        assert_eq!(heap.page_count(), 1);
    }

    #[test]
    fn non_heap_file_is_rejected() {
        let path = temp_path("heap-bad");
        std::fs::write(&path, vec![0u8; PAGE_SIZE]).unwrap();
        assert!(HeapFile::open(&path, schema()).is_err());
    }

    #[test]
    fn persist_as_renames_atomically() {
        let dir = crate::testutil::temp_dir("heap-rename");
        let tmp = dir.join("seg-00000002.seg.tmp");
        let fin = dir.join("seg-00000002.seg");
        let mut heap = HeapFile::create(&tmp, schema(), 2, 10, 1).unwrap();
        let mut page = Page::new();
        page.append(b"live").unwrap();
        heap.write_page(0, &page).unwrap();
        heap.sync().unwrap();
        heap.persist_as(&fin).unwrap();
        assert!(!tmp.exists());
        drop(heap);
        let heap = HeapFile::open(&fin, schema()).unwrap();
        assert_eq!(heap.replaces(), 1);
        assert_eq!(heap.page_count(), 1);
    }

    #[test]
    fn destroy_removes_the_file() {
        let path = temp_path("heap-destroy");
        let heap = HeapFile::create(&path, schema(), 1, 0, 0).unwrap();
        assert!(path.exists());
        let freed = heap.destroy().unwrap();
        assert!(freed >= PAGE_SIZE as u64);
        assert!(!path.exists());
    }
}
