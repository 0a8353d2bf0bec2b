//! Transformer model configurations (the paper's benchmarks, Section V-A).

use crate::nonlinear::NonGemmProfile;
use lt_core::{Op, OpKind, Trace};

/// Whether the model embeds image patches (DeiT) or tokens (BERT).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputKind {
    /// Vision Transformer: patch embedding is a GEMM over flattened patches.
    VisionPatches {
        /// Input image side length in pixels (e.g. 224).
        image_size: usize,
        /// Patch side length in pixels (e.g. 16).
        patch_size: usize,
    },
    /// Text Transformer: embedding is a table lookup (no GEMM).
    TextTokens,
}

/// An encoder-style Transformer configuration.
///
/// ```
/// use lt_workloads::TransformerConfig;
/// let m = TransformerConfig::deit_tiny();
/// assert_eq!(m.seq_len, 197);
/// assert_eq!(m.head_dim(), 64);
/// // DeiT-T is ~1.1 GMACs at 224x224.
/// let gmacs = m.total_macs() as f64 / 1e9;
/// assert!(gmacs > 0.9 && gmacs < 1.5, "gmacs = {gmacs}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TransformerConfig {
    /// Human-readable name (e.g. `DeiT-T-224`).
    pub name: String,
    /// Number of encoder blocks.
    pub layers: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Hidden dimension of the FFN.
    pub ffn_dim: usize,
    /// Sequence length (tokens, including CLS for vision models).
    pub seq_len: usize,
    /// Number of output classes of the task head.
    pub num_classes: usize,
    /// Input embedding kind.
    pub input: InputKind,
}

impl TransformerConfig {
    /// DeiT-Tiny at 224x224: 12 layers, dim 192, 3 heads, FFN 768.
    pub fn deit_tiny() -> Self {
        Self::vision("DeiT-T-224", 12, 192, 3, 768)
    }

    /// DeiT-Small at 224x224: 12 layers, dim 384, 6 heads, FFN 1536.
    pub fn deit_small() -> Self {
        Self::vision("DeiT-S-224", 12, 384, 6, 1536)
    }

    /// DeiT-Base at 224x224: 12 layers, dim 768, 12 heads, FFN 3072.
    pub fn deit_base() -> Self {
        Self::vision("DeiT-B-224", 12, 768, 12, 3072)
    }

    /// BERT-base with a configurable sequence length (the paper uses 128).
    pub fn bert_base(seq_len: usize) -> Self {
        Self::text(&format!("BERT-base-{seq_len}"), 12, 768, 12, 3072, seq_len)
    }

    /// BERT-large with a configurable sequence length (the paper uses 320).
    pub fn bert_large(seq_len: usize) -> Self {
        Self::text(
            &format!("BERT-large-{seq_len}"),
            24,
            1024,
            16,
            4096,
            seq_len,
        )
    }

    /// GPT-2-small geometry (124M class): 12 layers, dim 768, 12 heads —
    /// the decoder stand-in for the paper's LLM discussion (Section VI-B).
    pub fn gpt2_small(seq_len: usize) -> Self {
        Self::text(&format!("GPT2-small-{seq_len}"), 12, 768, 12, 3072, seq_len)
    }

    /// GPT-2-medium geometry (355M class): 24 layers, dim 1024, 16 heads.
    pub fn gpt2_medium(seq_len: usize) -> Self {
        Self::text(
            &format!("GPT2-medium-{seq_len}"),
            24,
            1024,
            16,
            4096,
            seq_len,
        )
    }

    /// All five benchmark models of the paper's Fig. 13.
    pub fn paper_benchmarks() -> Vec<TransformerConfig> {
        vec![
            Self::deit_tiny(),
            Self::deit_small(),
            Self::deit_base(),
            Self::bert_base(128),
            Self::bert_large(320),
        ]
    }

    fn vision(name: &str, layers: usize, dim: usize, heads: usize, ffn: usize) -> Self {
        let image_size = 224;
        let patch_size = 16;
        let patches = (image_size / patch_size) * (image_size / patch_size);
        TransformerConfig {
            name: name.to_string(),
            layers,
            dim,
            heads,
            ffn_dim: ffn,
            seq_len: patches + 1, // + CLS token
            num_classes: 1000,
            input: InputKind::VisionPatches {
                image_size,
                patch_size,
            },
        }
    }

    fn text(
        name: &str,
        layers: usize,
        dim: usize,
        heads: usize,
        ffn: usize,
        seq_len: usize,
    ) -> Self {
        assert!(seq_len > 0, "sequence length must be positive");
        TransformerConfig {
            name: name.to_string(),
            layers,
            dim,
            heads,
            ffn_dim: ffn,
            seq_len,
            num_classes: 2, // SST-2-style classification head
            input: InputKind::TextTokens,
        }
    }

    /// Per-head dimension `d_k = dim / heads`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads`.
    pub fn head_dim(&self) -> usize {
        assert_eq!(
            self.dim % self.heads,
            0,
            "dim {} not divisible by heads {}",
            self.dim,
            self.heads
        );
        self.dim / self.heads
    }

    /// The analytical op trace of one single-batch inference (as in the
    /// paper's simulator): every GEMM in execution order, each repeated
    /// across heads and layers as its instance count, followed by the
    /// non-GEMM digital profile. This is the *analytical* producer of
    /// the IR; `lt-nn` forward passes produce the *recorded*
    /// counterpart, and `tests/trace_crossval.rs` pins their agreement
    /// on GEMMs. Consumers that cost GEMMs only take
    /// [`Trace::gemm_only`].
    pub fn trace(&self) -> Trace {
        let (l, d, f, layers) = (self.seq_len, self.dim, self.ffn_dim, self.layers);
        let (h, dh) = (self.heads, self.head_dim());
        let mut t = Trace::new();
        // Input embedding.
        if let InputKind::VisionPatches { patch_size, .. } = self.input {
            t.push(Op::gemm(
                OpKind::PatchEmbed,
                l - 1,
                3 * patch_size * patch_size,
                d,
            ));
        }
        // Encoder blocks.
        t.extend([
            // Q, K, V projections: three [L, D] x [D, D] GEMMs.
            Op::gemm_n(OpKind::QkvProj, l, d, d, 3 * layers),
            // Q K^T per head: [L, dh] x [dh, L].
            Op::gemm_n(OpKind::AttnQk, l, dh, l, h * layers),
            // A V per head: [L, L] x [L, dh].
            Op::gemm_n(OpKind::AttnAv, l, l, dh, h * layers),
            Op::gemm_n(OpKind::OutProj, l, d, d, layers),
            Op::gemm_n(OpKind::Ffn1, l, d, f, layers),
            Op::gemm_n(OpKind::Ffn2, l, f, d, layers),
        ]);
        // Task head on the CLS token.
        t.push(Op::gemm(OpKind::Classifier, 1, d, self.num_classes));
        t.extend(self.non_gemm_profile().ops());
        t
    }

    /// A structurally identical but tiny geometry: same layer count,
    /// head count, and input kind, with the widths shrunk (head dim 2,
    /// FFN expansion 2x, short sequences, at most 16 classes) so real
    /// weights can be instantiated and a forward pass executed — and
    /// recorded — inside a test. The analytical trace generator is
    /// fully parametric, so cross-validating recorded-vs-analytical at
    /// this geometry validates the generator for the benchmark's whole
    /// shape family.
    pub fn tiny_validation(&self) -> TransformerConfig {
        let dim = self.heads * 2;
        let (input, seq_len) = match self.input {
            InputKind::VisionPatches { .. } => {
                let (image_size, patch_size) = (32, 8);
                let patches = (image_size / patch_size) * (image_size / patch_size);
                (
                    InputKind::VisionPatches {
                        image_size,
                        patch_size,
                    },
                    patches + 1,
                )
            }
            InputKind::TextTokens => (InputKind::TextTokens, self.seq_len.min(16)),
        };
        TransformerConfig {
            name: format!("{}-tiny", self.name),
            layers: self.layers,
            dim,
            heads: self.heads,
            ffn_dim: dim * 2,
            seq_len,
            num_classes: self.num_classes.min(16),
            input,
        }
    }

    /// Total multiply-accumulate count of one inference.
    pub fn total_macs(&self) -> u64 {
        self.trace().total_macs()
    }

    /// Parameter count of the GEMM weights (attention + FFN + heads).
    pub fn param_count(&self) -> u64 {
        self.trace().weight_elems()
    }

    /// The non-GEMM (digital) operation profile of one inference.
    pub fn non_gemm_profile(&self) -> NonGemmProfile {
        NonGemmProfile::for_model(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deit_family_shapes() {
        let t = TransformerConfig::deit_tiny();
        assert_eq!((t.layers, t.dim, t.heads, t.ffn_dim), (12, 192, 3, 768));
        assert_eq!(t.seq_len, 197);
        let s = TransformerConfig::deit_small();
        assert_eq!(s.dim, 384);
        let b = TransformerConfig::deit_base();
        assert_eq!(b.dim, 768);
        assert_eq!(b.head_dim(), 64);
    }

    #[test]
    fn bert_profiles() {
        let b = TransformerConfig::bert_base(128);
        assert_eq!(b.seq_len, 128);
        assert_eq!(b.head_dim(), 64);
        let l = TransformerConfig::bert_large(320);
        assert_eq!((l.layers, l.dim, l.heads), (24, 1024, 16));
        assert_eq!(l.head_dim(), 64);
    }

    #[test]
    fn mac_counts_are_plausible() {
        // Published MAC counts (~FLOPs/2): DeiT-T ~1.1 G, DeiT-S ~4.3 G,
        // DeiT-B ~16.9 G at 224x224.
        let gmacs = |m: &TransformerConfig| m.total_macs() as f64 / 1e9;
        let t = gmacs(&TransformerConfig::deit_tiny());
        let s = gmacs(&TransformerConfig::deit_small());
        let b = gmacs(&TransformerConfig::deit_base());
        assert!((0.9..1.5).contains(&t), "DeiT-T {t} GMACs");
        assert!((3.8..5.0).contains(&s), "DeiT-S {s} GMACs");
        assert!((15.0..19.0).contains(&b), "DeiT-B {b} GMACs");
        assert!(s > 3.0 * t && b > 3.0 * s, "family scales ~4x per step");
    }

    #[test]
    fn param_counts_are_plausible() {
        // DeiT-T ~5-6 M, DeiT-B ~86 M (GEMM weights only, no embeddings).
        let t = TransformerConfig::deit_tiny().param_count() as f64 / 1e6;
        let b = TransformerConfig::deit_base().param_count() as f64 / 1e6;
        assert!((4.0..7.0).contains(&t), "DeiT-T params {t} M");
        assert!((80.0..90.0).contains(&b), "DeiT-B params {b} M");
    }

    #[test]
    fn bert_macs_scale_with_sequence() {
        let short = TransformerConfig::bert_base(128).total_macs();
        let long = TransformerConfig::bert_base(320).total_macs();
        assert!(long > 2 * short);
    }

    #[test]
    fn gpt_presets_have_decoder_geometries() {
        let s = TransformerConfig::gpt2_small(1);
        assert_eq!((s.layers, s.dim, s.heads), (12, 768, 12));
        assert_eq!(s.head_dim(), 64);
        let m = TransformerConfig::gpt2_medium(1);
        assert_eq!((m.layers, m.dim, m.heads), (24, 1024, 16));
        // Parameter counts in the published ballparks (GEMM weights only).
        let sp = s.param_count() as f64 / 1e6;
        let mp = m.param_count() as f64 / 1e6;
        assert!((70.0..110.0).contains(&sp), "GPT2-small {sp} M");
        assert!((250.0..350.0).contains(&mp), "GPT2-medium {mp} M");
    }

    #[test]
    fn ir_trace_carries_gemms_and_digital_profile() {
        let m = TransformerConfig::deit_tiny();
        let t = m.trace();
        assert_eq!(t.total_macs(), m.total_macs());
        assert_eq!(t.len(), t.gemm_only().len() + 4);
        let digital: u64 = t
            .ops()
            .iter()
            .filter_map(|op| match *op {
                Op::NonGemm { elems, .. } => Some(elems),
                _ => None,
            })
            .sum();
        assert_eq!(digital, m.non_gemm_profile().total_elems());
    }

    #[test]
    fn trace_shapes_follow_the_geometry() {
        let t = TransformerConfig::deit_tiny().trace();
        for op in [
            Op::gemm(OpKind::PatchEmbed, 196, 768, 192),
            // Attention products are per head, per layer.
            Op::gemm_n(OpKind::AttnQk, 197, 64, 197, 3 * 12),
            Op::gemm_n(OpKind::AttnAv, 197, 197, 64, 3 * 12),
        ] {
            assert!(t.ops().contains(&op), "missing {op:?}");
        }
        // The FFN is DeiT's largest MAC consumer (Table V's FFN energy
        // sits well above MHA's).
        let macs = |module| -> u64 {
            t.ops()
                .iter()
                .filter(|op| op.module() == module)
                .map(Op::total_macs)
                .sum()
        };
        assert!(macs(lt_core::Module::Ffn) > macs(lt_core::Module::Mha));
        let bert = TransformerConfig::bert_base(128).trace();
        assert!(!bert.ops().iter().any(|op| matches!(
            op,
            Op::Gemm {
                kind: OpKind::PatchEmbed,
                ..
            }
        )));
    }

    #[test]
    fn tiny_validation_keeps_structure_and_shrinks_widths() {
        for m in TransformerConfig::paper_benchmarks() {
            let t = m.tiny_validation();
            assert_eq!(t.layers, m.layers, "{}", m.name);
            assert_eq!(t.heads, m.heads, "{}", m.name);
            assert_eq!(t.head_dim(), 2, "{}", m.name);
            assert!(t.seq_len <= 17, "{}", m.name);
            assert!(t.total_macs() < 100_000_000, "{} stays test-sized", m.name);
            // Same op-kind multiset as the full model.
            let kinds = |c: &TransformerConfig| -> Vec<OpKind> {
                c.trace()
                    .ops()
                    .iter()
                    .filter_map(|op| match *op {
                        Op::Gemm { kind, .. } => Some(kind),
                        Op::NonGemm { .. } => None,
                    })
                    .collect()
            };
            assert_eq!(kinds(&t), kinds(&m), "{}", m.name);
        }
    }

    #[test]
    fn paper_benchmark_list_is_complete() {
        let names: Vec<String> = TransformerConfig::paper_benchmarks()
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(
            names,
            vec![
                "DeiT-T-224",
                "DeiT-S-224",
                "DeiT-B-224",
                "BERT-base-128",
                "BERT-large-320"
            ]
        );
    }
}
