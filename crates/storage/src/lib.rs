//! # gsn-storage
//!
//! The storage layer of a GSN-RS container: windowed stream tables, retention
//! management, a persistent page-based storage engine, and the bridge from stored stream
//! history to the SQL engine's relations.
//!
//! In the paper's architecture (Section 4) the storage layer sits between the Virtual
//! Sensor Manager and the Query Manager: wrappers post stream elements, the storage layer
//! keeps exactly as much history as the declared windows require, and query evaluation
//! reads windowed views.  The original GSN delegated persistence to MySQL tables; GSN-RS
//! implements both halves natively:
//!
//! * time- and count-based windows ([`WindowSpec`]),
//! * retention derived from the union of all windows over a source ([`Retention`]),
//! * `permanent-storage="true"` mapping to [`Retention::Unbounded`],
//! * implicit `PK` / `TIMED` columns exposed to SQL.
//!
//! ## Architecture: one resident store, one persistent engine
//!
//! Every [`StreamTable`] delegates element storage to one of exactly two
//! [`StorageBackend`]s:
//!
//! * **Resident** ([`ResidentBackend`]) — every memory table: a `Vec` of elements with
//!   exact retention; a cursor copies only the rows it pulls.  Right for the small bounded
//!   windows of stream sources; with a spill budget it also moves its cold prefix into
//!   a log-less segment store (see below).
//! * **Persistent** ([`PersistentBackend`]) — chosen per table from the descriptor's
//!   `permanent-storage` / `backend` attributes when the container has a data directory.
//!   History survives restarts and can grow far beyond RAM.
//!
//! ## Persistent engine
//!
//! ```text
//!  insert ──▶ WAL append ──▶ tail page in SharedBufferPool ──(page completed)──▶ heap file
//!                                                             (eviction/checkpoint)
//!  window scan ◀── SharedBufferPool (≤ pool_pages resident, all tables) ◀── heap pages
//! ```
//!
//! * **Page format** ([`page`]): 8 KiB slotted pages — records packed from the front, a
//!   slot directory growing from the back.  Rows larger than a page chain across
//!   dedicated overflow pages.
//! * **Segmented heaps** ([`segment`], [`heap`]): a table's pages live in fixed-capacity
//!   `<table>.NNNNNNNN.seg` files whose headers carry the schema, the prune watermark
//!   and the segment's `first_row` (the exact sequence→row anchor).  Only the tail
//!   segment is written; pruning advances a logical watermark, and the retention
//!   maintenance pass ([`retention`]) then *reclaims file space*: fully dead head
//!   segments are deleted and the boundary segment is compacted, so long-lived bounded
//!   tables stop growing forever.
//! * **Disk-spilled windows** ([`spill`]): a memory table whose resident bytes exceed
//!   the configured budget moves its cold prefix into a persistent segment store — a
//!   cache with no write-ahead log, wiped at restart — so `storage-size="30d"` windows
//!   query in bounded memory through the shared pool.
//! * **Buffer pool** ([`buffer`]): one bounded, thread-safe frame cache per container
//!   ([`SharedBufferPool`]) with clock (second-chance) eviction *across tables* and
//!   pin/unpin.  Pinned pages are never evicted; resident pages never exceed the
//!   container-wide budget, so scans over tables larger than the pool run in bounded
//!   memory even with hundreds of sensors.
//! * **Write-ahead log** ([`wal`]): one layout — every durable table appends CRC-framed
//!   rows under its tag in the container's one [`WalSet`] log, `wal-shard-0000.wal`,
//!   before the page write.  [`SyncMode`] picks the durability/throughput trade-off.
//!
//! **Recovery semantics**: completed pages are written through immediately, so the heap
//! on disk is always a gap-free prefix of the table; the WAL holds everything since the
//! last checkpoint.  Re-opening a table scans the heap (tolerating a torn tail page),
//! then replays WAL rows whose sequence exceeds the heap's highest — nothing is lost on
//! a clean drop, and at most the un-synced tail is lost on a hard crash with
//! [`SyncMode::OnCheckpoint`] (nothing with [`SyncMode::Always`]; at most the current
//! step's rows when the container's per-step WAL group commit is enabled).
//!
//! ```
//! use std::sync::Arc;
//! use gsn_storage::{StorageManager, Retention, WindowSpec, CatalogView, LiveCatalog};
//! use gsn_types::{DataType, StreamElement, StreamSchema, Timestamp, Value};
//!
//! let storage = StorageManager::new();
//! let schema = Arc::new(StreamSchema::from_pairs(&[("temperature", DataType::Integer)]).unwrap());
//! storage.create_table("motes", schema.clone(), Retention::Elements(100)).unwrap();
//! for i in 0..5 {
//!     let e = StreamElement::new(schema.clone(), vec![Value::Integer(20 + i)], Timestamp(i * 100)).unwrap();
//!     storage.insert("motes", e, Timestamp(i * 100)).unwrap();
//! }
//! // A window is read live: the view is built once, and each evaluation scans it.
//! let views = [CatalogView::new("src1", "motes", WindowSpec::Count(3))];
//! let catalog = LiveCatalog::new(&storage, &views, Timestamp(400));
//! let mut engine = gsn_sql::SqlEngine::new();
//! let avg = engine.execute_scalar("select avg(temperature) from src1", &catalog).unwrap();
//! assert_eq!(avg, Value::Double(23.0));
//! ```
//!
//! A durable table survives dropping the manager and re-opening on the same directory:
//!
//! ```
//! use std::sync::Arc;
//! use gsn_storage::{Retention, StorageManager};
//! use gsn_types::{DataType, StreamElement, StreamSchema, Timestamp, Value};
//!
//! let dir = std::env::temp_dir().join(format!("gsn-doc-{}", std::process::id()));
//! let schema = Arc::new(StreamSchema::from_pairs(&[("v", DataType::Integer)]).unwrap());
//! {
//!     let storage = StorageManager::persistent(&dir);
//!     storage.create_table_durable("history", schema.clone(), Retention::Unbounded).unwrap();
//!     let e = StreamElement::new(schema.clone(), vec![Value::Integer(7)], Timestamp(1)).unwrap();
//!     storage.insert("history", e, Timestamp(1)).unwrap();
//! } // dropped: tables checkpoint on drop
//! let storage = StorageManager::persistent(&dir);
//! storage.create_table_durable("history", schema, Retention::Unbounded).unwrap();
//! assert_eq!(storage.table("history").unwrap().read().len(), 1);
//! # storage.drop_table("history").unwrap();
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod buffer;
pub mod heap;
pub mod index;
pub mod manager;
pub mod page;
pub mod retention;
pub mod segment;
pub mod spill;
pub mod stats;
pub mod table;
pub mod telemetry;
#[doc(hidden)]
pub mod testutil;
pub mod wal;
pub mod window;

pub use backend::{
    BackendKind, PersistentBackend, PersistentOptions, ScanBounds, ScanState, StorageBackend,
};
pub use buffer::{BufferPoolStats, PageIo, RegionStats, SharedBufferPool, TableId};
pub use heap::HeapFile;
pub use manager::{CatalogView, LiveCatalog, StorageManager, StorageOptions, StreamCursor};
pub use page::{Page, PageId, PAGE_SIZE};
pub use retention::{DiskUsage, MaintenanceReport, MaintenanceTotals, ReclaimStats};
pub use segment::{SegmentedHeap, DEFAULT_SEGMENT_PAGES, MAX_SEGMENT_PAGES};
pub use spill::{ResidentBackend, SpillOptions};
pub use stats::{StorageStats, TableDiskStats, TableStats};
pub use table::{sampling_stride, StreamTable};
pub use telemetry::StorageTelemetry;
pub use wal::{SyncMode, Wal, WalSet};
pub use window::{Retention, WindowSpec};
