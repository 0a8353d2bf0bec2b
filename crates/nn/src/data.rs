//! Deterministic synthetic datasets.
//!
//! Stand-ins for ImageNet (DeiT) and SST-2 (BERT) — see DESIGN.md,
//! Substitution 2. Both tasks are built to *require attention*: the vision
//! task needs a global comparison across patches, and the text task needs
//! token-to-token matching across positions.

use crate::tensor::Tensor;
use lt_core::GaussianSampler;

/// Image side length of the synthetic vision task.
pub const IMAGE_SIZE: usize = 16;
/// Patch side length (16 patches of 4x4 pixels).
pub const PATCH_SIZE: usize = 4;

/// Number of patches per image.
pub const NUM_PATCHES: usize = (IMAGE_SIZE / PATCH_SIZE) * (IMAGE_SIZE / PATCH_SIZE);
/// Values per patch.
pub const PATCH_DIM: usize = PATCH_SIZE * PATCH_SIZE;

/// A labelled vision sample: `[NUM_PATCHES, PATCH_DIM]` patches.
pub type VisionSample = (Tensor, usize);
/// A labelled text sample: fixed-length token ids.
pub type TextSample = (Vec<usize>, usize);

/// Synthetic vision task: a bright Gaussian blob sits in one of the four
/// image quadrants on top of pixel noise; the label is the quadrant
/// (class 0..3). Classifying it requires comparing brightness *globally*
/// across patches — a natural fit for self-attention.
pub fn vision_dataset(n: usize, seed: u64) -> Vec<VisionSample> {
    let mut rng = GaussianSampler::new(seed);
    (0..n)
        .map(|_| {
            let label = rng.below(4);
            let (qy, qx) = (label / 2, label % 2);
            // Blob centre inside the labelled quadrant (margin 2 px).
            let cy = qy as f64 * 8.0 + rng.uniform_in(2.0, 6.0);
            let cx = qx as f64 * 8.0 + rng.uniform_in(2.0, 6.0);
            let sigma = rng.uniform_in(1.2, 2.0);
            let mut image = [[0.0f32; IMAGE_SIZE]; IMAGE_SIZE];
            for (y, row) in image.iter_mut().enumerate() {
                for (x, px) in row.iter_mut().enumerate() {
                    let d2 = (y as f64 - cy).powi(2) + (x as f64 - cx).powi(2);
                    let blob = (-d2 / (2.0 * sigma * sigma)).exp();
                    *px = (blob + rng.normal(0.0, 0.2)) as f32;
                }
            }
            (patchify(&image), label)
        })
        .collect()
}

/// Flattens a 16x16 image into the `[NUM_PATCHES, PATCH_DIM]` layout the
/// ViT consumes.
pub fn patchify(image: &[[f32; IMAGE_SIZE]; IMAGE_SIZE]) -> Tensor {
    let per_side = IMAGE_SIZE / PATCH_SIZE;
    Tensor::from_fn(NUM_PATCHES, PATCH_DIM, |p, d| {
        let (py, px) = (p / per_side, p % per_side);
        let (dy, dx) = (d / PATCH_SIZE, d % PATCH_SIZE);
        image[py * PATCH_SIZE + dy][px * PATCH_SIZE + dx]
    })
}

/// Vocabulary size of the synthetic text task.
pub const VOCAB: usize = 16;
/// Sequence length of the synthetic text task.
pub const SEQ_LEN: usize = 12;

/// Synthetic text task ("copy detection"): label 1 iff the *first* token
/// reappears anywhere later in the sequence. Solving it requires attending
/// from later positions back to position 0 — a pure attention task that
/// bag-of-words models cannot solve.
pub fn text_dataset(n: usize, seed: u64) -> Vec<TextSample> {
    let mut rng = GaussianSampler::new(seed);
    (0..n)
        .map(|_| {
            let label = rng.below(2);
            let first = rng.below(VOCAB);
            let mut tokens = vec![first];
            for _ in 1..SEQ_LEN {
                // Fill with tokens different from `first`.
                let mut t = rng.below(VOCAB);
                while t == first {
                    t = rng.below(VOCAB);
                }
                tokens.push(t);
            }
            if label == 1 {
                // Plant a copy of the first token at a random later spot.
                let pos = 1 + rng.below(SEQ_LEN - 1);
                tokens[pos] = first;
            }
            (tokens, label)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vision_dataset_is_deterministic_and_balanced() {
        let a = vision_dataset(200, 42);
        let b = vision_dataset(200, 42);
        assert_eq!(a.len(), 200);
        for ((ta, la), (tb, lb)) in a.iter().zip(&b) {
            assert_eq!(la, lb);
            assert_eq!(ta, tb);
        }
        let mut counts = [0usize; 4];
        for (_, l) in &a {
            counts[*l] += 1;
        }
        assert!(counts.iter().all(|&c| c > 20), "counts {counts:?}");
    }

    #[test]
    fn blob_quadrant_is_brightest() {
        // The labelled quadrant should usually contain the max pixel.
        let data = vision_dataset(100, 7);
        let mut hits = 0;
        for (patches, label) in &data {
            // Patch indices of each quadrant (2x2 patches per quadrant).
            let mut best_patch = 0;
            let mut best = f32::NEG_INFINITY;
            for p in 0..NUM_PATCHES {
                let m = patches
                    .row(p)
                    .iter()
                    .fold(f32::NEG_INFINITY, |a, &b| a.max(b));
                if m > best {
                    best = m;
                    best_patch = p;
                }
            }
            let (py, px) = (best_patch / 4, best_patch % 4);
            let quadrant = (py / 2) * 2 + (px / 2);
            if quadrant == *label {
                hits += 1;
            }
        }
        assert!(
            hits > 85,
            "blob found in labelled quadrant {hits}/100 times"
        );
    }

    #[test]
    fn text_labels_match_construction() {
        for (tokens, label) in text_dataset(300, 9) {
            let first = tokens[0];
            let repeats = tokens[1..].contains(&first);
            assert_eq!(repeats, label == 1, "tokens {tokens:?} label {label}");
        }
    }

    #[test]
    fn text_dataset_is_roughly_balanced() {
        let data = text_dataset(400, 11);
        let ones = data.iter().filter(|(_, l)| *l == 1).count();
        assert!((120..280).contains(&ones), "positives {ones}/400");
    }

    #[test]
    fn patchify_layout() {
        let mut image = [[0.0f32; IMAGE_SIZE]; IMAGE_SIZE];
        image[0][0] = 1.0; // patch 0, offset 0
        image[4][4] = 2.0; // patch 5 (row 1, col 1), offset 0
        image[3][7] = 3.0; // patch 1 (row 0, col 1), row 3 col 3 => offset 15
        let p = patchify(&image);
        assert_eq!(p.get(0, 0), 1.0);
        assert_eq!(p.get(5, 0), 2.0);
        assert_eq!(p.get(1, 15), 3.0);
    }
}
