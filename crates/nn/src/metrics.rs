//! Classification metrics: confusion matrices and per-class statistics.
//!
//! The accuracy experiments report a single top-1 number, but debugging a
//! noisy analog backend needs to see *which* classes degrade — e.g.
//! whether photonic noise confuses adjacent blob quadrants.

use crate::engine::MatmulEngine;
use crate::layers::ForwardCtx;
use crate::model::Classifier;
use crate::quant::QuantConfig;
use crate::train::argmax;
use lt_core::GaussianSampler;
use std::fmt;

/// A confusion matrix over `n` classes (`rows = true`, `cols = predicted`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    n: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// An empty matrix over `n` classes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one class");
        ConfusionMatrix {
            n,
            counts: vec![0; n * n],
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.n
    }

    /// Records one `(true, predicted)` observation.
    ///
    /// # Panics
    ///
    /// Panics if either label is out of range.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        assert!(truth < self.n && predicted < self.n, "label out of range");
        self.counts[truth * self.n + predicted] += 1;
    }

    /// Count at `(true, predicted)`.
    pub fn count(&self, truth: usize, predicted: usize) -> u64 {
        self.counts[truth * self.n + predicted]
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall top-1 accuracy.
    pub fn accuracy(&self) -> f64 {
        let correct: u64 = (0..self.n).map(|i| self.count(i, i)).sum();
        correct as f64 / self.total().max(1) as f64
    }

    /// Recall of one class (diagonal over its row).
    pub fn recall(&self, class: usize) -> f64 {
        let row: u64 = (0..self.n).map(|j| self.count(class, j)).sum();
        if row == 0 {
            return 0.0;
        }
        self.count(class, class) as f64 / row as f64
    }

    /// Precision of one class (diagonal over its column).
    pub fn precision(&self, class: usize) -> f64 {
        let col: u64 = (0..self.n).map(|i| self.count(i, class)).sum();
        if col == 0 {
            return 0.0;
        }
        self.count(class, class) as f64 / col as f64
    }

    /// Macro-averaged F1 score.
    pub fn macro_f1(&self) -> f64 {
        let mut sum = 0.0;
        for c in 0..self.n {
            let p = self.precision(c);
            let r = self.recall(c);
            if p + r > 0.0 {
                sum += 2.0 * p * r / (p + r);
            }
        }
        sum / self.n as f64
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "true\\pred ")?;
        for j in 0..self.n {
            write!(f, "{j:>6}")?;
        }
        writeln!(f)?;
        for i in 0..self.n {
            write!(f, "{i:>9} ")?;
            for j in 0..self.n {
                write!(f, "{:>6}", self.count(i, j))?;
            }
            writeln!(f, "   recall {:.2}", self.recall(i))?;
        }
        write!(
            f,
            "accuracy {:.3}, macro-F1 {:.3}",
            self.accuracy(),
            self.macro_f1()
        )
    }
}

/// Evaluates a classifier into a confusion matrix with an arbitrary
/// engine (exact / quantized / photonic).
pub fn confusion_matrix<I, M, S>(
    model: &mut M,
    data: &[(S, usize)],
    num_classes: usize,
    engine: &mut dyn MatmulEngine,
    quant: QuantConfig,
) -> ConfusionMatrix
where
    I: ?Sized,
    M: Classifier<I>,
    S: std::borrow::Borrow<I>,
{
    let mut rng = GaussianSampler::new(0);
    let mut cm = ConfusionMatrix::new(num_classes);
    for (input, label) in data {
        let mut ctx = ForwardCtx::inference(engine, quant, &mut rng);
        let logits = model.forward(input.borrow(), &mut ctx);
        cm.record(*label, argmax(&logits));
    }
    cm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let mut cm = ConfusionMatrix::new(3);
        for c in 0..3 {
            for _ in 0..10 {
                cm.record(c, c);
            }
        }
        assert_eq!(cm.total(), 30);
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.macro_f1(), 1.0);
        for c in 0..3 {
            assert_eq!(cm.recall(c), 1.0);
            assert_eq!(cm.precision(c), 1.0);
        }
    }

    #[test]
    fn skewed_predictions() {
        let mut cm = ConfusionMatrix::new(2);
        // Class 0: 8 right, 2 wrong; class 1: 5 right, 5 wrong.
        for _ in 0..8 {
            cm.record(0, 0);
        }
        for _ in 0..2 {
            cm.record(0, 1);
        }
        for _ in 0..5 {
            cm.record(1, 1);
        }
        for _ in 0..5 {
            cm.record(1, 0);
        }
        assert!((cm.accuracy() - 0.65).abs() < 1e-12);
        assert!((cm.recall(0) - 0.8).abs() < 1e-12);
        assert!((cm.recall(1) - 0.5).abs() < 1e-12);
        assert!((cm.precision(0) - 8.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn empty_class_has_zero_scores() {
        let mut cm = ConfusionMatrix::new(3);
        cm.record(0, 0);
        assert_eq!(cm.recall(2), 0.0);
        assert_eq!(cm.precision(2), 0.0);
    }

    #[test]
    fn display_renders_rows() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record(0, 0);
        cm.record(1, 0);
        let s = cm.to_string();
        assert!(s.contains("accuracy"));
        assert!(s.contains("recall"));
    }

    #[test]
    fn end_to_end_with_model() {
        use crate::data;
        use crate::engine::ExactEngine;
        use crate::model::{ModelConfig, VisionTransformer};
        let mut rng = GaussianSampler::new(9);
        let mut vit = VisionTransformer::new(
            ModelConfig::tiny_vision(),
            data::NUM_PATCHES,
            data::PATCH_DIM,
            &mut rng,
        );
        let test = data::vision_dataset(32, 1);
        let cm = confusion_matrix(&mut vit, &test, 4, &mut ExactEngine, QuantConfig::fp32());
        assert_eq!(cm.total(), 32);
        // Untrained model: accuracy is whatever it is, but bookkeeping
        // must be consistent.
        let diag: u64 = (0..4).map(|c| cm.count(c, c)).sum();
        assert!((cm.accuracy() - diag as f64 / 32.0).abs() < 1e-12);
    }
}
