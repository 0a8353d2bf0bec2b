//! Model checkpointing: save/load all parameters to a simple binary
//! format.
//!
//! The paper's artifact ships a trained DeiT checkpoint so reviewers can
//! skip the 2-day training run; this module provides the same workflow for
//! our models. The format is deliberately simple (magic, version, tensor
//! count, then `rows/cols/f32-LE data` per tensor, in `visit_params`
//! order) with no external serialization crates.

use crate::layers::Param;
use crate::model::Classifier;
use crate::tensor::Tensor;
use std::fmt;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"LTCKPT01";

/// Errors produced when loading a checkpoint.
#[derive(Debug)]
pub enum LoadCheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not a checkpoint (bad magic).
    BadMagic,
    /// The checkpoint's tensor count or shapes do not match the model.
    ShapeMismatch {
        /// Parameter index where the mismatch occurred.
        index: usize,
        /// Shape stored in the checkpoint.
        stored: (usize, usize),
        /// Shape the model expects.
        expected: (usize, usize),
    },
    /// Fewer/more tensors in the file than the model has parameters.
    CountMismatch {
        /// Tensor count in the checkpoint.
        stored: usize,
        /// Parameter count of the model.
        expected: usize,
    },
}

impl fmt::Display for LoadCheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadCheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            LoadCheckpointError::BadMagic => write!(f, "not a lightening-transformer checkpoint"),
            LoadCheckpointError::ShapeMismatch { index, stored, expected } => write!(
                f,
                "parameter {index} shape mismatch: checkpoint has {stored:?}, model expects {expected:?}"
            ),
            LoadCheckpointError::CountMismatch { stored, expected } => write!(
                f,
                "checkpoint holds {stored} tensors but the model has {expected} parameters"
            ),
        }
    }
}

impl std::error::Error for LoadCheckpointError {}

impl From<io::Error> for LoadCheckpointError {
    fn from(e: io::Error) -> Self {
        LoadCheckpointError::Io(e)
    }
}

/// Serializes every parameter of a model to a writer.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save<I: ?Sized, M: Classifier<I>, W: Write>(model: &mut M, mut writer: W) -> io::Result<()> {
    let mut tensors: Vec<(usize, usize, Vec<f32>)> = Vec::new();
    model.visit_params(&mut |p: &mut Param| {
        tensors.push((p.value.rows(), p.value.cols(), p.value.data().to_vec()));
    });
    writer.write_all(MAGIC)?;
    writer.write_all(&(tensors.len() as u64).to_le_bytes())?;
    for (rows, cols, data) in tensors {
        writer.write_all(&(rows as u64).to_le_bytes())?;
        writer.write_all(&(cols as u64).to_le_bytes())?;
        for v in data {
            writer.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Restores every parameter of a model from a reader. The model must have
/// been constructed with the same architecture.
///
/// # Errors
///
/// Returns [`LoadCheckpointError`] on I/O failure, bad magic, or any
/// count/shape mismatch (the model is left partially updated in that
/// case — reload or rebuild it).
pub fn load<I: ?Sized, M: Classifier<I>, R: Read>(
    model: &mut M,
    mut reader: R,
) -> Result<(), LoadCheckpointError> {
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(LoadCheckpointError::BadMagic);
    }
    let mut u64buf = [0u8; 8];
    reader.read_exact(&mut u64buf)?;
    let stored = u64::from_le_bytes(u64buf) as usize;

    let mut expected = 0usize;
    model.visit_params(&mut |_| expected += 1);
    if stored != expected {
        return Err(LoadCheckpointError::CountMismatch { stored, expected });
    }

    // Read all tensors first, then install (keeps borrowck simple and
    // detects truncated files before touching the model).
    let mut tensors = Vec::with_capacity(stored);
    for _ in 0..stored {
        reader.read_exact(&mut u64buf)?;
        let rows = u64::from_le_bytes(u64buf) as usize;
        reader.read_exact(&mut u64buf)?;
        let cols = u64::from_le_bytes(u64buf) as usize;
        let mut data = vec![0f32; rows * cols];
        let mut f32buf = [0u8; 4];
        for v in &mut data {
            reader.read_exact(&mut f32buf)?;
            *v = f32::from_le_bytes(f32buf);
        }
        tensors.push(Tensor::from_vec(rows, cols, data));
    }

    let mut index = 0usize;
    let mut mismatch: Option<LoadCheckpointError> = None;
    model.visit_params(&mut |p: &mut Param| {
        if mismatch.is_some() {
            return;
        }
        let t = &tensors[index];
        if t.shape() != p.value.shape() {
            mismatch = Some(LoadCheckpointError::ShapeMismatch {
                index,
                stored: t.shape(),
                expected: p.value.shape(),
            });
            return;
        }
        p.value = t.clone();
        index += 1;
    });
    match mismatch {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;
    use crate::engine::ExactEngine;
    use crate::layers::ForwardCtx;
    use crate::model::{ModelConfig, TextClassifier, VisionTransformer};
    use crate::quant::QuantConfig;
    use lt_core::GaussianSampler;

    fn logits_of(vit: &mut VisionTransformer, sample: &Tensor) -> Tensor {
        let mut eng = ExactEngine;
        let mut ctx = ForwardCtx::inference(&mut eng, QuantConfig::fp32());
        vit.forward(sample, &mut ctx)
    }

    #[test]
    fn save_load_round_trip_preserves_outputs() {
        let mut rng = GaussianSampler::new(1);
        let mut original = VisionTransformer::new(
            ModelConfig::tiny_vision(),
            data::NUM_PATCHES,
            data::PATCH_DIM,
            &mut rng,
        );
        let sample = data::vision_dataset(1, 2).remove(0).0;
        let before = logits_of(&mut original, &sample);

        let mut buf = Vec::new();
        save(&mut original, &mut buf).unwrap();

        // A differently-initialized model of the same architecture.
        let mut rng2 = GaussianSampler::new(999);
        let mut restored = VisionTransformer::new(
            ModelConfig::tiny_vision(),
            data::NUM_PATCHES,
            data::PATCH_DIM,
            &mut rng2,
        );
        assert!(logits_of(&mut restored, &sample).max_abs_diff(&before) > 1e-3);
        load(&mut restored, buf.as_slice()).unwrap();
        let after = logits_of(&mut restored, &sample);
        assert!(after.max_abs_diff(&before) < 1e-7);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut rng = GaussianSampler::new(3);
        let mut model = TextClassifier::new(
            ModelConfig::tiny_text(),
            data::VOCAB,
            data::SEQ_LEN,
            &mut rng,
        );
        let junk = b"NOTACKPT.......".to_vec();
        match load(&mut model, junk.as_slice()) {
            Err(LoadCheckpointError::BadMagic) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn wrong_architecture_rejected() {
        let mut rng = GaussianSampler::new(4);
        let mut vision = VisionTransformer::new(
            ModelConfig::tiny_vision(),
            data::NUM_PATCHES,
            data::PATCH_DIM,
            &mut rng,
        );
        let mut buf = Vec::new();
        save(&mut vision, &mut buf).unwrap();

        let mut text = TextClassifier::new(
            ModelConfig::tiny_text(),
            data::VOCAB,
            data::SEQ_LEN,
            &mut rng,
        );
        let err = load(&mut text, buf.as_slice()).unwrap_err();
        // The two architectures differ in parameter count (and would also
        // differ in shapes); either structured error is acceptable.
        assert!(
            matches!(
                err,
                LoadCheckpointError::CountMismatch { .. }
                    | LoadCheckpointError::ShapeMismatch { .. }
            ),
            "expected a structural mismatch error, got: {err}"
        );
    }

    #[test]
    fn truncated_file_is_an_io_error() {
        let mut rng = GaussianSampler::new(5);
        let mut model = VisionTransformer::new(
            ModelConfig::tiny_vision(),
            data::NUM_PATCHES,
            data::PATCH_DIM,
            &mut rng,
        );
        let mut buf = Vec::new();
        save(&mut model, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        match load(&mut model, buf.as_slice()) {
            Err(LoadCheckpointError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
