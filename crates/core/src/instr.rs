//! Secure instruction-stream lowering — the compiler pass of §IV-D.
//!
//! "The compiler for NPUs and library writers add the code for tracking
//! version numbers. Since the data flow is statically analyzed in the NPU
//! software, the extra effort is minor and it can be automatically inserted
//! by the compiler" — this module is that pass: it takes a tiled
//! [`ModelPlan`] and emits the extended instruction stream of Fig. 13 (a),
//! where every `mvin`/`mvout` carries its version number and the version
//! table is expanded/merged around each layer's output tensor.
//!
//! The emitted stream is *checkable*: [`replay`] re-executes the version
//! discipline against a fresh [`VersionTable`] and verifies every version
//! annotation, which is exactly the consistency property the hardware MAC
//! check enforces at run time.

use crate::version::{VersionError, VersionTable};
use std::collections::BTreeMap;
use tnpu_npu::dma::Dir;
use tnpu_npu::tiler::ModelPlan;
use tnpu_sim::Cycles;

/// One instruction of the secure stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecureInstr {
    /// CPU-side initialization of a tensor through `ts_write_block`
    /// (Fig. 13 (a) "initialization" lines).
    TsWriteTensor {
        /// Tensor id.
        tensor: u32,
        /// Bytes written.
        bytes: u64,
        /// Version the blocks are MAC'd under.
        version: u64,
    },
    /// Expand a tensor's version entry into tile-unit entries.
    Expand {
        /// Tensor id.
        tensor: u32,
        /// Number of tiles.
        tiles: u32,
    },
    /// `mvin` with its expected version (the extended API).
    MvinV {
        /// Tensor id.
        tensor: u32,
        /// Tile id.
        tile: u32,
        /// Expected version supplied to the MAC verifier.
        version: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// Systolic-array computation.
    Compute {
        /// Cycles on the array.
        cycles: Cycles,
    },
    /// `mvout` with the new version (the extended API).
    MvoutV {
        /// Tensor id.
        tensor: u32,
        /// Tile id.
        tile: u32,
        /// Version embedded in the generated MACs.
        version: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// Merge a tensor's tile entries back into one (end of layer).
    Merge {
        /// Tensor id.
        tensor: u32,
        /// The merged version.
        version: u64,
    },
    /// Declare a zero-cost aliasing tensor (a `Concat` output: its bytes
    /// were produced by the branch layers' `mvout`s; the alias entry gives
    /// downstream readers a version to pass).
    Alias {
        /// Tensor id.
        tensor: u32,
        /// Version downstream `mvin`s will carry.
        version: u64,
    },
}

/// A lowering failure (would indicate a planner bug).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// Version discipline violated during lowering or replay.
    Version(VersionError),
    /// A replayed `mvin`/`mvout` carried a version the table disagrees
    /// with.
    VersionMismatch {
        /// Tensor id.
        tensor: u32,
        /// Tile id.
        tile: u32,
        /// Version in the stream.
        annotated: u64,
        /// Version the table expects.
        expected: u64,
    },
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::Version(e) => write!(f, "version error: {e}"),
            LowerError::VersionMismatch {
                tensor,
                tile,
                annotated,
                expected,
            } => write!(
                f,
                "tensor {tensor} tile {tile}: stream says v{annotated}, table says v{expected}"
            ),
        }
    }
}

impl std::error::Error for LowerError {}

impl From<VersionError> for LowerError {
    fn from(e: VersionError) -> Self {
        LowerError::Version(e)
    }
}

/// Lower a tiled plan into the secure instruction stream.
///
/// Input and weight tensors are initialized by the CPU at version 1; each
/// layer expands its output tensor over the tiles its stores touch, bumps a
/// tile's version at its `mvout`, and merges when the layer completes.
///
/// # Errors
///
/// [`LowerError`] if the plan's tile structure violates the version
/// discipline (a planner bug, not a user error).
pub fn lower_secure(plan: &ModelPlan) -> Result<Vec<SecureInstr>, LowerError> {
    let mut table = VersionTable::new();
    let mut stream = Vec::new();
    let layout = &plan.layout;

    // CPU-side initialization: input + every distinct weight tensor.
    table.register(layout.input.id);
    let v = table.bump(layout.input.id)?;
    stream.push(SecureInstr::TsWriteTensor {
        tensor: layout.input.id,
        bytes: layout.input.bytes,
        version: v,
    });
    let mut seen_weights = std::collections::BTreeSet::new();
    for w in layout.weights.iter().flatten() {
        if seen_weights.insert(w.id) {
            table.register(w.id);
            let v = table.bump(w.id)?;
            stream.push(SecureInstr::TsWriteTensor {
                tensor: w.id,
                bytes: w.bytes,
                version: v,
            });
        }
    }
    for out in &layout.outputs {
        table.register(out.id);
    }

    for (li, &(start, end)) in plan.layer_jobs.iter().enumerate() {
        // tnpu-lint: allow(panic-path) — the tiler plans one job range per
        // layer of the layout it was given, which has one output per layer.
        let out_id = layout.outputs[li].id;
        if start == end {
            // Zero-cost aliasing layer (concat): its region was written by
            // the branches; declare the alias version downstream reads use.
            let version = table.bump(out_id)?;
            stream.push(SecureInstr::Alias {
                tensor: out_id,
                version,
            });
            continue;
        }
        // tnpu-lint: allow(panic-path) — `layer_jobs` holds consecutive
        // `start..end` ranges the tiler cut from this same `jobs` vector.
        let jobs = &plan.jobs[start..end];
        // Distinct output tiles this layer stores, in first-store order.
        let mut tile_index: BTreeMap<u32, u32> = BTreeMap::new();
        for job in jobs {
            for s in &job.stores {
                if s.tensor_id == out_id {
                    let next = tile_index.len() as u32;
                    tile_index.entry(s.tile_id).or_insert(next);
                }
            }
        }
        let tiles = tile_index.len().max(1) as u32;
        table.expand(out_id, tiles)?;
        stream.push(SecureInstr::Expand {
            tensor: out_id,
            tiles,
        });
        for job in jobs {
            for load in &job.loads {
                let version = table.version(load.tensor_id, 0)?;
                stream.push(SecureInstr::MvinV {
                    tensor: load.tensor_id,
                    tile: load.tile_id,
                    version,
                    bytes: load.bytes(),
                });
            }
            stream.push(SecureInstr::Compute {
                cycles: job.compute,
            });
            for store in &job.stores {
                debug_assert_eq!(store.dir, Dir::Write);
                // tnpu-lint: allow(panic-path) — a layer's jobs store only its
                // output, and the scan above indexed every tile they store.
                let tile = tile_index[&store.tile_id];
                let version = table.bump_tile(store.tensor_id, tile)?;
                stream.push(SecureInstr::MvoutV {
                    tensor: store.tensor_id,
                    tile,
                    version,
                    bytes: store.bytes(),
                });
            }
        }
        let merged = table.merge(out_id)?;
        stream.push(SecureInstr::Merge {
            tensor: out_id,
            version: merged,
        });
    }
    Ok(stream)
}

/// Re-execute a stream's version discipline against a fresh table,
/// verifying every annotation — the software analogue of the hardware MAC
/// check.
///
/// # Errors
///
/// [`LowerError::VersionMismatch`] on the first inconsistent annotation.
pub fn replay(stream: &[SecureInstr]) -> Result<(), LowerError> {
    let mut table = VersionTable::new();
    for instr in stream {
        match *instr {
            SecureInstr::TsWriteTensor {
                tensor, version, ..
            } => {
                table.register(tensor);
                let v = table.bump(tensor)?;
                if v != version {
                    return Err(LowerError::VersionMismatch {
                        tensor,
                        tile: 0,
                        annotated: version,
                        expected: v,
                    });
                }
            }
            SecureInstr::Expand { tensor, tiles } => {
                table.register(tensor);
                table.expand(tensor, tiles)?;
            }
            SecureInstr::MvinV {
                tensor,
                tile,
                version,
                ..
            } => {
                let expected = table.version(tensor, 0)?;
                if expected != version {
                    return Err(LowerError::VersionMismatch {
                        tensor,
                        tile,
                        annotated: version,
                        expected,
                    });
                }
            }
            SecureInstr::Compute { .. } => {}
            SecureInstr::MvoutV {
                tensor,
                tile,
                version,
                ..
            } => {
                let v = table.bump_tile(tensor, tile)?;
                if v != version {
                    return Err(LowerError::VersionMismatch {
                        tensor,
                        tile,
                        annotated: version,
                        expected: v,
                    });
                }
            }
            SecureInstr::Merge { tensor, version } => {
                let merged = table.merge(tensor)?;
                if merged != version {
                    return Err(LowerError::VersionMismatch {
                        tensor,
                        tile: 0,
                        annotated: version,
                        expected: merged,
                    });
                }
            }
            SecureInstr::Alias { tensor, version } => {
                table.register(tensor);
                let v = table.bump(tensor)?;
                if v != version {
                    return Err(LowerError::VersionMismatch {
                        tensor,
                        tile: 0,
                        annotated: version,
                        expected: v,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnpu_npu::alloc::ModelLayout;
    use tnpu_npu::{tiler, NpuConfig};
    use tnpu_sim::Addr;

    fn stream_for(name: &str) -> Vec<SecureInstr> {
        let model = tnpu_models::registry::model(name).expect("registered");
        let npu = NpuConfig::small_npu();
        let layout = ModelLayout::allocate(&model, Addr(0));
        let plan = tiler::plan(&model, &npu, &layout, 3);
        lower_secure(&plan).expect("plan obeys the version discipline")
    }

    #[test]
    fn alexnet_stream_replays_cleanly() {
        let stream = stream_for("alex");
        assert!(stream.len() > 50);
        replay(&stream).expect("stream is self-consistent");
    }

    #[test]
    fn every_model_lowers_and_replays() {
        for name in tnpu_models::registry::MODEL_NAMES {
            let stream = stream_for(name);
            replay(&stream).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn stream_structure_matches_fig13() {
        let stream = stream_for("df");
        // Initialization first: input + weights as ts_write.
        assert!(matches!(stream[0], SecureInstr::TsWriteTensor { .. }));
        // Each layer: Expand ... MvinV/Compute/MvoutV ... Merge.
        let expands = stream
            .iter()
            .filter(|i| matches!(i, SecureInstr::Expand { .. }))
            .count();
        let merges = stream
            .iter()
            .filter(|i| matches!(i, SecureInstr::Merge { .. }))
            .count();
        assert_eq!(expands, merges);
        assert_eq!(expands, 6, "one per deepface layer");
    }

    #[test]
    fn mvins_carry_live_versions() {
        let stream = stream_for("df");
        for i in &stream {
            if let SecureInstr::MvinV { version, .. } = i {
                assert!(*version >= 1, "reads must see initialized data");
            }
        }
    }

    #[test]
    fn tampered_stream_fails_replay() {
        let mut stream = stream_for("df");
        let pos = stream
            .iter()
            .position(|i| matches!(i, SecureInstr::MvinV { .. }))
            .expect("has mvins");
        if let SecureInstr::MvinV { version, .. } = &mut stream[pos] {
            *version += 1; // stale/forged version annotation
        }
        assert!(matches!(
            replay(&stream),
            Err(LowerError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn weights_initialized_once_even_when_tied() {
        let stream = stream_for("tf");
        let inits = stream
            .iter()
            .filter(|i| matches!(i, SecureInstr::TsWriteTensor { .. }))
            .count();
        let model = tnpu_models::registry::model("tf").expect("registered");
        let distinct_weights = model
            .layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.weights_shared_with.is_none() && l.kind.weight_elements() > 0)
            .count();
        assert_eq!(inits, distinct_weights + 1, "+1 for the input tensor");
    }
}
