//! The write-ahead jobs log.
//!
//! Every job transition the server must survive a crash through is
//! appended here — one JSON object per line, fsynced before the
//! transition takes effect — so a `kill -9` at any instant loses
//! nothing: on restart the log replays into the exact set of accepted,
//! in-flight and finished jobs. A torn final line (the artifact of a
//! crash mid-append) is dropped silently, because the transition it
//! described never committed, and [`JobLog::open`] cuts it off before
//! the next append; a torn line *before* the end is corruption and
//! surfaces as a structured error.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use fixref_core::JobSpec;
use fixref_obs::{FromJson, Json, JsonError, ToJson};
use fixref_sim::SpecError;

/// One committed job transition.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// The job passed admission and owns queue space from here on.
    Accepted {
        /// Monotonic acceptance sequence (job ids are minted from it).
        seq: u64,
        /// Job id (`"j-<seq>"`).
        job: String,
        /// The full submitted spec — recovery re-runs from this, never
        /// from in-memory state. Boxed: acceptance records dwarf the
        /// other transitions.
        spec: Box<JobSpec>,
    },
    /// A worker picked the job up (attempt is 0-based).
    Started {
        /// Job id.
        job: String,
        /// 0-based attempt number.
        attempt: usize,
    },
    /// The job reached a terminal state and its result is on disk.
    Completed {
        /// Job id.
        job: String,
        /// `"complete"`, `"partial"` or `"failed"`.
        status: String,
    },
    /// The job was cancelled before a worker picked it up.
    Cancelled {
        /// Job id.
        job: String,
    },
}

impl ToJson for WalRecord {
    fn encode(&self) -> Json {
        match self {
            WalRecord::Accepted { seq, job, spec } => Json::obj([
                ("wal", "accepted".encode()),
                ("seq", seq.encode()),
                ("job", job.encode()),
                ("spec", spec.encode()),
            ]),
            WalRecord::Started { job, attempt } => Json::obj([
                ("wal", "started".encode()),
                ("job", job.encode()),
                ("attempt", attempt.encode()),
            ]),
            WalRecord::Completed { job, status } => Json::obj([
                ("wal", "completed".encode()),
                ("job", job.encode()),
                ("status", status.encode()),
            ]),
            WalRecord::Cancelled { job } => {
                Json::obj([("wal", "cancelled".encode()), ("job", job.encode())])
            }
        }
    }
}

impl FromJson for WalRecord {
    fn decode(v: &Json) -> Result<Self, JsonError> {
        match v.field::<String>("wal")?.as_str() {
            "accepted" => Ok(WalRecord::Accepted {
                seq: v.field("seq")?,
                job: v.field("job")?,
                spec: Box::new(v.field("spec")?),
            }),
            "started" => Ok(WalRecord::Started {
                job: v.field("job")?,
                attempt: v.field("attempt")?,
            }),
            "completed" => Ok(WalRecord::Completed {
                job: v.field("job")?,
                status: v.field("status")?,
            }),
            "cancelled" => Ok(WalRecord::Cancelled {
                job: v.field("job")?,
            }),
            other => Err(JsonError::new(format!("unknown kind {other:?}"))),
        }
    }
}

/// Append-only, fsynced jobs log.
#[derive(Debug)]
pub struct JobLog {
    path: PathBuf,
    file: File,
}

impl JobLog {
    /// Opens (creating if absent) the log at `path`, ending it at a record
    /// boundary before anything is appended. A crash mid-append leaves the
    /// file ending in a torn fragment, or in a complete record without its
    /// newline, and the next record would run on into that line: a
    /// fragment that does not decode is cut off (it never committed), a
    /// complete final record gets its newline, and the repair is synced.
    ///
    /// # Errors
    ///
    /// I/O errors opening, reading, repairing or syncing the file.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let boundary = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        if boundary < bytes.len() {
            if decode_line(&bytes[boundary..]).is_ok() {
                file.write_all(b"\n")?;
            } else {
                file.set_len(boundary as u64)?;
            }
            file.sync_data()?;
        }
        Ok(JobLog { path, file })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and fsyncs before returning — the transition
    /// is durable once this call succeeds.
    ///
    /// # Errors
    ///
    /// I/O errors writing or syncing; on error the record must be
    /// treated as NOT committed.
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<()> {
        let mut line = record.encode().to_string();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }

    /// Replays the log at `path` into its committed records. A torn
    /// final line is dropped (its transition never committed); returns
    /// how many bytes of tail were dropped that way. A missing file
    /// replays to an empty log.
    ///
    /// # Errors
    ///
    /// [`SpecError`] for corruption anywhere but the final line.
    pub fn replay(path: impl AsRef<Path>) -> Result<(Vec<WalRecord>, usize), SpecError> {
        let path = path.as_ref();
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
            Err(e) => return Err(SpecError::new(format!("{}: {e}", path.display()))),
        };
        let mut records = Vec::new();
        let mut dropped = 0;
        let lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
        for (i, raw) in lines.iter().enumerate() {
            let is_last = i + 1 == lines.len();
            let line = raw.strip_suffix(b"\n").unwrap_or(raw);
            if line.is_empty() {
                continue;
            }
            match decode_line(line) {
                Ok(r) => records.push(r),
                // A torn append: the crash hit mid-write, so the
                // transition never committed. Only the final line may
                // be torn.
                Err(_) if is_last && !raw.ends_with(b"\n") => {
                    dropped = raw.len();
                }
                Err(e) => {
                    return Err(SpecError::new(format!(
                        "wal line {}: wal record: {e}",
                        i + 1
                    )))
                }
            }
        }
        Ok((records, dropped))
    }
}

/// Decodes one log line, its newline excluded.
fn decode_line(line: &[u8]) -> Result<WalRecord, JsonError> {
    let text = std::str::from_utf8(line).map_err(|_| JsonError::new("not UTF-8"))?;
    WalRecord::decode(&Json::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixref_core::FlowSpec;
    use fixref_sim::{DesignSpec, ScenarioSet};

    fn tmp(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("fixref_wal_{name}.jsonl"));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn spec() -> JobSpec {
        JobSpec::new(
            "acme",
            DesignSpec::new("lms").with_param("mu", 0.0625),
            ScenarioSet::single(7, 28.0, 100),
        )
        .with_flow(FlowSpec {
            cache: true,
            ..FlowSpec::default()
        })
    }

    #[test]
    fn appended_records_replay_in_order() {
        let path = tmp("roundtrip");
        let records = vec![
            WalRecord::Accepted {
                seq: 1,
                job: "j-1".into(),
                spec: Box::new(spec()),
            },
            WalRecord::Started {
                job: "j-1".into(),
                attempt: 0,
            },
            WalRecord::Completed {
                job: "j-1".into(),
                status: "complete".into(),
            },
            WalRecord::Cancelled { job: "j-2".into() },
        ];
        let mut log = JobLog::open(&path).expect("opens");
        for r in &records {
            log.append(r).expect("appends");
        }
        drop(log);
        let (back, dropped) = JobLog::replay(&path).expect("replays");
        assert_eq!(back, records);
        assert_eq!(dropped, 0);

        // Re-opening appends, never truncates.
        let mut log = JobLog::open(&path).expect("re-opens");
        log.append(&WalRecord::Cancelled { job: "j-3".into() })
            .expect("appends");
        let (back, _) = JobLog::replay(&path).expect("replays");
        assert_eq!(back.len(), records.len() + 1);
    }

    #[test]
    fn torn_final_line_is_dropped_but_torn_middle_is_corruption() {
        let path = tmp("torn");
        let mut log = JobLog::open(&path).expect("opens");
        log.append(&WalRecord::Cancelled { job: "j-1".into() })
            .expect("appends");
        drop(log);
        // Simulate a crash mid-append: a half-written record with no
        // trailing newline.
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str(r#"{"wal":"accepted","seq":2,"job":"j-2""#);
        std::fs::write(&path, &text).expect("write");
        let (records, dropped) = JobLog::replay(&path).expect("torn tail tolerated");
        assert_eq!(records.len(), 1);
        assert!(dropped > 0);

        // The same garbage mid-file (newline-terminated, records after
        // it) is corruption, not a torn append.
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push('\n');
        text.push_str(r#"{"wal":"cancelled","job":"j-3"}"#);
        text.push('\n');
        std::fs::write(&path, &text).expect("write");
        assert!(JobLog::replay(&path).is_err());
    }

    #[test]
    fn open_cuts_a_torn_tail_and_terminates_a_complete_one() {
        let path = tmp("repair");
        let mut log = JobLog::open(&path).expect("opens");
        log.append(&WalRecord::Cancelled { job: "j-1".into() })
            .expect("appends");
        drop(log);
        let clean = std::fs::read_to_string(&path).expect("read");

        // A torn record (cut mid-character, too) is cut off.
        let mut torn = clean.clone().into_bytes();
        torn.extend_from_slice(b"{\"wal\":\"cancelled\",\"job\":\"j-\xc3");
        std::fs::write(&path, &torn).expect("write");
        assert_eq!(JobLog::replay(&path).expect("tolerated").0.len(), 1);
        let mut log = JobLog::open(&path).expect("re-opens");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), clean);
        log.append(&WalRecord::Cancelled { job: "j-2".into() })
            .expect("appends");
        let (records, dropped) = JobLog::replay(&path).expect("replays");
        assert_eq!((records.len(), dropped), (2, 0));

        // A complete record without its newline keeps the record.
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, text.trim_end()).expect("write");
        let mut log = JobLog::open(&path).expect("re-opens");
        log.append(&WalRecord::Cancelled { job: "j-3".into() })
            .expect("appends");
        let (records, dropped) = JobLog::replay(&path).expect("replays");
        assert_eq!((records.len(), dropped), (3, 0));
    }

    #[test]
    fn accepted_record_naming_a_removed_backend_is_a_structured_error() {
        // A log written when the lane-batching backend still existed:
        // replay must reject the record with the spec's own error, not
        // panic and not silently run it under another backend.
        let path = tmp("batched");
        let mut log = JobLog::open(&path).expect("opens");
        let mut old = spec();
        old.flow.backend = "batched".into();
        log.append(&WalRecord::Accepted {
            seq: 1,
            job: "j-1".into(),
            spec: Box::new(old),
        })
        .expect("appends");
        drop(log);
        let err = JobLog::replay(&path).expect_err("unknown backend");
        assert!(
            err.to_string()
                .contains(r#"unknown backend "batched" (expected interpreted, compiled)"#),
            "{err}"
        );
    }

    #[test]
    fn accepted_records_naming_the_compiled_backend_run_as_interpreted_ones() {
        use crate::server::{Server, ServerConfig};

        // A log written when a job could select the compiled backend, one
        // sequential job and one swept: recovery must run both, with the
        // results of the same jobs asking for the interpreter.
        let recover = |backend: &str| {
            let dir = std::env::temp_dir().join(format!("fixref_wal_backend_{backend}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("creates the data dir");
            let mut log = JobLog::open(dir.join("jobs.wal")).expect("opens");
            for (seq, shards) in [(1u64, 0usize), (2, 2)] {
                let spec = JobSpec::new(
                    "acme",
                    DesignSpec::new("lms").with_input_dtype("<7,5,tc,st,rd>"),
                    ScenarioSet::grid(&[7, 11], &[28.0], &[], &[120]),
                )
                .with_flow(FlowSpec {
                    backend: backend.into(),
                    shards,
                    ..FlowSpec::default()
                });
                log.append(&WalRecord::Accepted {
                    seq,
                    job: format!("j-{seq}"),
                    spec: Box::new(spec),
                })
                .expect("appends");
            }
            drop(log);
            let mut config = ServerConfig::new(&dir);
            config.sweep_workers = fixref_sim::shard_count_from_env(2);
            let server = Server::open(config).expect("recovers the log");
            assert_eq!(server.queue_depth(), 2, "both jobs are re-queued");
            server.run_until_idle();
            ["j-1", "j-2"].map(|job| server.result(job).expect("the job ran"))
        };
        let compiled = recover("compiled");
        assert!(
            compiled.iter().all(|r| r.status == "complete"),
            "{compiled:?}"
        );
        assert_eq!(compiled, recover("interpreted"));
    }

    #[test]
    fn accepted_records_keep_seeds_and_sequence_numbers_exact() {
        let path = tmp("exact");
        let records: Vec<WalRecord> = [(1u64 << 53) + 1, u64::MAX]
            .into_iter()
            .map(|n| WalRecord::Accepted {
                seq: n,
                job: format!("j-{n}"),
                spec: Box::new(JobSpec::new(
                    "acme",
                    DesignSpec::new("lms"),
                    ScenarioSet::single(n, 28.0, 100),
                )),
            })
            .collect();
        let mut log = JobLog::open(&path).expect("opens");
        for r in &records {
            log.append(r).expect("appends");
        }
        drop(log);
        let (back, _) = JobLog::replay(&path).expect("replays");
        assert_eq!(back, records);
    }

    #[test]
    fn missing_log_replays_empty() {
        let (records, dropped) = JobLog::replay(tmp("missing")).expect("empty");
        assert!(records.is_empty());
        assert_eq!(dropped, 0);
    }
}
