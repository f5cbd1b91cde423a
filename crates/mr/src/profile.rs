//! Job profiles: the measured (or estimated) quantities the cost model
//! consumes.
//!
//! Planner and engine both produce [`JobProfile`]s — the planner from DFS
//! metadata plus sampling, the engine from actual execution — so the same
//! cost functions price estimated and real jobs identically.

use gumbo_common::ByteSize;

/// Per-input-partition measurements (`Iᵢ` of §3.3).
///
/// The paper's refinement over MRShare/Wang & Chan is precisely to keep
/// these *separate* per input, because the mapper's input/output ratio may
/// differ wildly between inputs (Eq. 2 vs Eq. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct InputPartition {
    /// Human-readable label (the input relation's name).
    pub label: String,
    /// `Nᵢ`: input size read from the DFS.
    pub input: ByteSize,
    /// `Mᵢ`: intermediate (map output) size produced from this input.
    pub map_output: ByteSize,
    /// Number of map-output records (for the 16 B/record metadata `M̂ᵢ`).
    pub records_out: u64,
    /// `mᵢ`: number of map tasks over this input.
    pub mappers: usize,
}

impl InputPartition {
    /// `M̂ᵢ`: map-output metadata, 16 bytes per record (§3.3, footnote 2).
    pub fn meta(&self, meta_bytes_per_record: u64) -> ByteSize {
        ByteSize::bytes(self.records_out.saturating_mul(meta_bytes_per_record))
    }
}

/// The complete profile of one MapReduce job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobProfile {
    /// One entry per input partition.
    pub partitions: Vec<InputPartition>,
    /// `r`: number of reduce tasks.
    pub reducers: usize,
    /// `K`: size of the reduce output written to the DFS.
    pub output: ByteSize,
}

impl JobProfile {
    /// `M`: total intermediate data, `Σᵢ Mᵢ`.
    pub fn total_map_output(&self) -> ByteSize {
        self.partitions.iter().map(|p| p.map_output).sum()
    }

    /// Total input, `Σᵢ Nᵢ`.
    pub fn total_input(&self) -> ByteSize {
        self.partitions.iter().map(|p| p.input).sum()
    }

    /// Total map-output records.
    pub fn total_records_out(&self) -> u64 {
        self.partitions.iter().map(|p| p.records_out).sum()
    }

    /// Total number of map tasks.
    pub fn total_mappers(&self) -> usize {
        self.partitions.iter().map(|p| p.mappers).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> JobProfile {
        JobProfile {
            partitions: vec![
                InputPartition {
                    label: "R".into(),
                    input: ByteSize::mb(4000),
                    map_output: ByteSize::mb(16000),
                    records_out: 400_000_000,
                    mappers: 32,
                },
                InputPartition {
                    label: "S".into(),
                    input: ByteSize::mb(1000),
                    map_output: ByteSize::mb(1000),
                    records_out: 100_000_000,
                    mappers: 8,
                },
            ],
            reducers: 66,
            output: ByteSize::mb(4000),
        }
    }

    #[test]
    fn aggregates() {
        let p = profile();
        assert_eq!(p.total_input(), ByteSize::mb(5000));
        assert_eq!(p.total_map_output(), ByteSize::mb(17000));
        assert_eq!(p.total_records_out(), 500_000_000);
        assert_eq!(p.total_mappers(), 40);
    }

    #[test]
    fn meta_is_16b_per_record() {
        let p = profile();
        assert_eq!(p.partitions[1].meta(16), ByteSize::bytes(1_600_000_000));
    }
}
