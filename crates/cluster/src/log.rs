//! A general, segmented append-only log of Wire-encoded records.
//!
//! Generalizes the mailbox WAL (PR 2) into the durable substrate every
//! log-structured store in the cluster shares: the mailbox keeps using
//! it through [`crate::wal::Wal`], and each matcher's subscription store
//! appends its mutations here before touching the index (ISSUE 7).
//!
//! ## On-disk format
//!
//! A log is a directory of segment files named
//! `{base}.g{generation:06}.o{first_offset:012}.seg`, each a sequence of
//! length-prefixed (`u32` LE) Wire-encoded records:
//!
//! | field          | meaning                                             |
//! |----------------|-----------------------------------------------------|
//! | `base`         | logical log name (one dir may hold many logs)       |
//! | `generation`   | bumped by every compaction; highest generation wins |
//! | `first_offset` | logical offset of the segment's first record        |
//!
//! Records take consecutive logical offsets that survive rotation and
//! compaction — the same offsets the replication layer
//! (`bluedove_engine::replication`) fences on.
//!
//! ## Crash safety
//!
//! *Appends*: a torn trailing record (crash mid-append) is detected on
//! open and physically truncated away, so re-opened logs never append
//! after garbage. *Compaction*: the snapshot is written to a temp file,
//! fsynced, and atomically renamed into the **next generation**; only
//! then are older generations deleted. A crash at any point leaves
//! either the old generation intact (rename not reached) or the new one
//! complete (rename is atomic) — open picks the highest complete
//! generation and sweeps the rest.

use bluedove_engine::replication::Journal;
use bluedove_net::{frame, NetError, NetResult, Wire};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// When appended records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Flush to the OS on every append (survives process crash, not
    /// power loss). The default, and the historical WAL behaviour.
    #[default]
    Flush,
    /// `fsync` every append (survives power loss; slowest).
    Always,
    /// Leave appends buffered in-process until rotation/compaction; a
    /// crash loses the buffered tail, which replication re-fetches from
    /// a follower.
    Never,
}

/// Tuning knobs for a [`Log`].
#[derive(Debug, Clone, Copy)]
pub struct LogConfig {
    /// Rotate to a new segment once the current one exceeds this many
    /// bytes.
    pub segment_bytes: u64,
    /// Durability of individual appends.
    pub fsync: FsyncPolicy,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            segment_bytes: 1 << 20, // 1 MiB
            fsync: FsyncPolicy::Flush,
        }
    }
}

/// A segmented append-only log of `R` records under `dir`, named `base`.
pub struct Log<R: Wire> {
    dir: PathBuf,
    base: String,
    cfg: LogConfig,
    /// Compaction generation of the live segment set.
    generation: u64,
    /// Logical offset of the first retained record.
    first_offset: u64,
    /// Logical offset the next append takes.
    next_offset: u64,
    /// Records appended since open/compaction (compaction heuristic).
    appended: u64,
    /// Open handle on the current (last) segment.
    writer: BufWriter<File>,
    /// Path of the current segment (test hooks, rotation bookkeeping).
    seg_path: PathBuf,
    /// Bytes written to the current segment so far.
    seg_bytes: u64,
    _records: PhantomData<fn(R) -> R>,
}

/// `{base}.g{generation:06}.o{first_offset:012}.seg`
fn segment_name(base: &str, generation: u64, first_offset: u64) -> String {
    format!("{base}.g{generation:06}.o{first_offset:012}.seg")
}

/// Parses a segment file name back into `(generation, first_offset)`.
fn parse_segment(base: &str, name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix(base)?.strip_prefix(".g")?;
    let rest = rest.strip_suffix(".seg")?;
    let (generation, offset) = rest.split_once(".o")?;
    Some((generation.parse().ok()?, offset.parse().ok()?))
}

impl<R: Wire> Log<R> {
    /// Opens (creating if needed) the log `base` under `dir`, replaying
    /// every retained record in offset order. Torn tails are truncated
    /// away; stale generations and temp files are swept.
    pub fn open(dir: impl Into<PathBuf>, base: &str, cfg: LogConfig) -> NetResult<(Self, Vec<R>)> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;

        // Inventory this base's segments; sweep temp files.
        let mut segments: Vec<(u64, u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(base) && name.ends_with(".tmp") {
                let _ = std::fs::remove_file(entry.path());
                continue;
            }
            if let Some((generation, offset)) = parse_segment(base, name) {
                segments.push((generation, offset, entry.path()));
            }
        }
        // Highest generation wins; older generations are leftovers of a
        // compaction that crashed between rename and sweep.
        let live_gen = segments.iter().map(|&(g, _, _)| g).max().unwrap_or(0);
        segments.retain(|&(g, _, ref p)| {
            let live = g == live_gen;
            if !live {
                let _ = std::fs::remove_file(p);
            }
            live
        });
        segments.sort_by_key(|&(_, offset, _)| offset);

        let first_offset = segments.first().map(|&(_, o, _)| o).unwrap_or(0);
        let mut next_offset = first_offset;
        let mut records = Vec::new();
        let mut truncated_at = None;
        for (i, (_, seg_first, path)) in segments.iter().enumerate() {
            debug_assert_eq!(*seg_first, next_offset, "segment offsets contiguous");
            let (segment_records, good_bytes, clean) = replay_segment::<R>(path)?;
            next_offset += segment_records.len() as u64;
            records.extend(segment_records);
            if !clean {
                // Torn or corrupt record: cut the log here. Anything
                // after it (rest of this segment, later segments) is
                // unreachable history from a crashed append.
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(good_bytes)?;
                f.sync_data()?;
                truncated_at = Some(i);
                break;
            }
        }
        if let Some(i) = truncated_at {
            for (_, _, path) in &segments[i + 1..] {
                let _ = std::fs::remove_file(path);
            }
            segments.truncate(i + 1);
        }

        // Append into the last segment, or start segment 0.
        let (seg_path, seg_first) = match segments.last() {
            Some(&(_, o, ref p)) => (p.clone(), o),
            None => (
                dir.join(segment_name(base, live_gen, first_offset)),
                first_offset,
            ),
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&seg_path)?;
        let seg_bytes = file.metadata()?.len();
        debug_assert!(next_offset >= seg_first);
        let log = Log {
            dir,
            base: base.to_string(),
            cfg,
            generation: live_gen,
            first_offset,
            next_offset,
            appended: 0,
            writer: BufWriter::new(file),
            seg_path,
            seg_bytes,
            _records: PhantomData,
        };
        Ok((log, records))
    }

    /// Appends one record, returning its logical offset. Rotates to a
    /// fresh segment first when the current one is full.
    pub fn append(&mut self, rec: &R) -> NetResult<u64> {
        if self.seg_bytes >= self.cfg.segment_bytes {
            self.rotate()?;
        }
        let bytes = bluedove_net::to_bytes(rec);
        frame::write_frame(&mut self.writer, &bytes)?;
        match self.cfg.fsync {
            FsyncPolicy::Flush => self.writer.flush()?,
            FsyncPolicy::Always => {
                self.writer.flush()?;
                self.writer.get_ref().sync_data()?;
            }
            FsyncPolicy::Never => {}
        }
        self.seg_bytes += 4 + bytes.len() as u64;
        let offset = self.next_offset;
        self.next_offset += 1;
        self.appended += 1;
        Ok(offset)
    }

    /// Flushes and fsyncs the current segment (rotation, shutdown).
    pub fn sync(&mut self) -> NetResult<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        Ok(())
    }

    /// Seals the current segment and starts a new one at the current
    /// tail offset.
    fn rotate(&mut self) -> NetResult<()> {
        self.sync()?;
        let path = self
            .dir
            .join(segment_name(&self.base, self.generation, self.next_offset));
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        self.writer = BufWriter::new(file);
        self.seg_path = path;
        self.seg_bytes = 0;
        Ok(())
    }

    /// Replaces the entire retained history with `snapshot`, whose
    /// records take consecutive offsets from `new_first_offset` (pass
    /// [`Self::next_offset`] to re-stamp the snapshot as fresh appends,
    /// or an earlier offset to preserve positions). Written to a temp
    /// file, fsynced, atomically renamed into the next generation, and
    /// only then are the old generation's segments deleted.
    pub fn compact(&mut self, snapshot: &[R], new_first_offset: u64) -> NetResult<()> {
        let generation = self.generation + 1;
        let tmp = self.dir.join(format!("{}.g{generation:06}.tmp", self.base));
        let mut seg_bytes = 0;
        {
            let file = File::create(&tmp)?;
            let mut w = BufWriter::new(file);
            for rec in snapshot {
                let bytes = bluedove_net::to_bytes(rec);
                frame::write_frame(&mut w, &bytes)?;
                seg_bytes += 4 + bytes.len() as u64;
            }
            w.flush()?;
            w.get_ref().sync_data()?;
        }
        let final_path = self
            .dir
            .join(segment_name(&self.base, generation, new_first_offset));
        std::fs::rename(&tmp, &final_path)?;

        // The new generation is durable; sweep the old one.
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some((g, _)) = parse_segment(&self.base, name) {
                if g < generation {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }

        let mut file = OpenOptions::new().append(true).open(&final_path)?;
        file.seek(SeekFrom::End(0))?;
        self.generation = generation;
        self.first_offset = new_first_offset;
        self.next_offset = new_first_offset + snapshot.len() as u64;
        self.appended = 0;
        self.writer = BufWriter::new(file);
        self.seg_path = final_path;
        self.seg_bytes = seg_bytes;
        Ok(())
    }

    /// Records appended through this handle since open or the last
    /// compaction.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Logical offset of the first retained record.
    pub fn first_offset(&self) -> u64 {
        self.first_offset
    }

    /// Logical offset the next append will take.
    pub fn next_offset(&self) -> u64 {
        self.next_offset
    }

    /// Path of the segment currently appended to (test hook: torn-tail
    /// injection writes garbage here).
    pub fn current_segment(&self) -> &Path {
        &self.seg_path
    }
}

/// The durable journal under a replicated sub-log stream.
impl<R: Wire> Journal<R> for Log<R> {
    type Error = NetError;

    fn append(&mut self, rec: &R) -> NetResult<()> {
        Log::append(self, rec).map(drop)
    }

    fn rewrite(&mut self, records: &[R], base: u64) -> NetResult<()> {
        self.compact(records, base)
    }
}

/// Replays one segment file: returns its records, the byte length of
/// the clean prefix, and whether the whole file was clean.
fn replay_segment<R: Wire>(path: &Path) -> NetResult<(Vec<R>, u64, bool)> {
    let file = File::open(path)?;
    let total = file.metadata()?.len();
    let mut reader = BufReader::new(file);
    let mut records = Vec::new();
    let mut good = 0u64;
    loop {
        let payload = match frame::read_frame(&mut reader) {
            Ok(p) => p,
            // A partial length prefix reads as a disconnect; a partial
            // payload as an IO error. Either way the tail is torn.
            Err(NetError::Disconnected) | Err(NetError::Io(_)) => break,
            // A forged/corrupt length prefix also ends the clean prefix.
            Err(NetError::FrameTooLarge(_)) => break,
            Err(e) => return Err(e),
        };
        let Ok(rec) = bluedove_net::from_bytes::<R>(&payload) else {
            break; // corrupt record body
        };
        good += 4 + payload.len() as u64;
        records.push(rec);
    }
    Ok((records, good, good == total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{Buf, BytesMut};

    /// A trivial record for exercising the log machinery.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Rec(u64, Vec<u8>);

    impl Wire for Rec {
        fn encode(&self, buf: &mut BytesMut) {
            self.0.encode(buf);
            self.1.encode(buf);
        }
        fn decode(buf: &mut impl Buf) -> NetResult<Self> {
            Ok(Rec(u64::decode(buf)?, Vec::<u8>::decode(buf)?))
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bluedove-log-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny() -> LogConfig {
        LogConfig {
            segment_bytes: 64, // force frequent rotation
            fsync: FsyncPolicy::Flush,
        }
    }

    #[test]
    fn append_replay_round_trips_across_segments() {
        let dir = tmpdir("roundtrip");
        let mut offsets = Vec::new();
        {
            let (mut log, replayed) = Log::<Rec>::open(&dir, "t", tiny()).unwrap();
            assert!(replayed.is_empty());
            for i in 0..40u64 {
                offsets.push(log.append(&Rec(i, vec![0; 8])).unwrap());
            }
            assert_eq!(log.next_offset(), 40);
        }
        // Multiple segments on disk, one logical sequence on replay.
        let segs = std::fs::read_dir(&dir).unwrap().count();
        assert!(segs > 1, "tiny segments must rotate, got {segs} files");
        let (log, replayed) = Log::<Rec>::open(&dir, "t", tiny()).unwrap();
        assert_eq!(replayed.len(), 40);
        for (i, r) in replayed.iter().enumerate() {
            assert_eq!(r.0, i as u64);
        }
        assert_eq!(offsets, (0..40).collect::<Vec<_>>());
        assert_eq!(log.first_offset(), 0);
        assert_eq!(log.next_offset(), 40);
    }

    #[test]
    fn two_logs_share_a_directory() {
        let dir = tmpdir("shared");
        let (mut a, _) = Log::<Rec>::open(&dir, "alpha", tiny()).unwrap();
        let (mut b, _) = Log::<Rec>::open(&dir, "alpha-prime", tiny()).unwrap();
        a.append(&Rec(1, vec![])).unwrap();
        b.append(&Rec(2, vec![])).unwrap();
        b.append(&Rec(3, vec![])).unwrap();
        drop((a, b));
        // `alpha` must not pick up `alpha-prime`'s segments despite the
        // shared prefix.
        let (_, ra) = Log::<Rec>::open(&dir, "alpha", tiny()).unwrap();
        let (_, rb) = Log::<Rec>::open(&dir, "alpha-prime", tiny()).unwrap();
        assert_eq!(ra, vec![Rec(1, vec![])]);
        assert_eq!(rb, vec![Rec(2, vec![]), Rec(3, vec![])]);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume_cleanly() {
        let dir = tmpdir("torn");
        let seg_path;
        {
            let (mut log, _) = Log::<Rec>::open(&dir, "t", LogConfig::default()).unwrap();
            log.append(&Rec(1, vec![7; 4])).unwrap();
            seg_path = log.current_segment().to_path_buf();
        }
        let clean_len = std::fs::metadata(&seg_path).unwrap().len();
        // Crash mid-append: a frame header promising more than exists.
        {
            let mut f = OpenOptions::new().append(true).open(&seg_path).unwrap();
            f.write_all(&100u32.to_le_bytes()).unwrap();
            f.write_all(&[1, 2, 3]).unwrap();
        }
        let (mut log, replayed) = Log::<Rec>::open(&dir, "t", LogConfig::default()).unwrap();
        assert_eq!(replayed, vec![Rec(1, vec![7; 4])]);
        // The torn bytes are physically gone, so the next append is NOT
        // written after garbage (the seed WAL would have).
        assert_eq!(std::fs::metadata(&seg_path).unwrap().len(), clean_len);
        log.append(&Rec(2, vec![])).unwrap();
        drop(log);
        let (_, replayed) = Log::<Rec>::open(&dir, "t", LogConfig::default()).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[1].0, 2);
    }

    #[test]
    fn compaction_bumps_generation_and_preserves_offsets() {
        let dir = tmpdir("compact");
        let (mut log, _) = Log::<Rec>::open(&dir, "t", tiny()).unwrap();
        for i in 0..30u64 {
            log.append(&Rec(i, vec![0; 8])).unwrap();
        }
        assert_eq!(log.appended(), 30);
        // Re-stamp a 3-record snapshot as fresh appends at the tail.
        let snap = vec![Rec(100, vec![]), Rec(101, vec![]), Rec(102, vec![])];
        log.compact(&snap, log.next_offset()).unwrap();
        assert_eq!(log.first_offset(), 30);
        assert_eq!(log.next_offset(), 33);
        assert_eq!(log.appended(), 0);
        let off = log.append(&Rec(103, vec![])).unwrap();
        assert_eq!(off, 33);
        drop(log);
        let (log, replayed) = Log::<Rec>::open(&dir, "t", tiny()).unwrap();
        assert_eq!(log.first_offset(), 30);
        assert_eq!(log.next_offset(), 34);
        assert_eq!(
            replayed.iter().map(|r| r.0).collect::<Vec<_>>(),
            vec![100, 101, 102, 103]
        );
        // Old generation swept: exactly the new-gen segments remain.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            let (g, _) = parse_segment("t", name.to_str().unwrap()).unwrap();
            assert_eq!(g, 1);
        }
    }

    #[test]
    fn stale_generation_and_temp_files_are_swept_on_open() {
        let dir = tmpdir("sweep");
        {
            let (mut log, _) = Log::<Rec>::open(&dir, "t", tiny()).unwrap();
            for i in 0..10u64 {
                log.append(&Rec(i, vec![0; 8])).unwrap();
            }
            log.compact(&[Rec(42, vec![])], log.next_offset()).unwrap();
        }
        // Simulate the crash windows: a leftover temp file and a stale
        // generation-0 segment that the sweep missed.
        std::fs::write(dir.join("t.g000002.tmp"), b"partial").unwrap();
        std::fs::write(dir.join(segment_name("t", 0, 0)), b"stale").unwrap();
        let (_, replayed) = Log::<Rec>::open(&dir, "t", tiny()).unwrap();
        assert_eq!(replayed, vec![Rec(42, vec![])]);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().all(|n| !n.ends_with(".tmp")),
            "temp files swept: {names:?}"
        );
        assert!(
            names.iter().all(|n| parse_segment("t", n) != Some((0, 0))),
            "stale generation swept: {names:?}"
        );
    }

    #[test]
    fn fsync_never_loses_only_the_buffered_tail() {
        let dir = tmpdir("nofsync");
        let cfg = LogConfig {
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::Never,
        };
        let (mut log, _) = Log::<Rec>::open(&dir, "t", cfg).unwrap();
        log.append(&Rec(1, vec![])).unwrap();
        log.sync().unwrap();
        log.append(&Rec(2, vec![])).unwrap();
        // Drop WITHOUT flushing: the BufWriter tail is lost, as a crash
        // would lose it. (std flushes on drop, so model the crash by
        // forgetting the writer via a fresh open over the synced state.)
        std::mem::forget(log);
        let (_, replayed) = Log::<Rec>::open(&dir, "t", cfg).unwrap();
        assert_eq!(replayed, vec![Rec(1, vec![])], "only the synced prefix");
    }
}
