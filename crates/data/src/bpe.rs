//! Byte-pair encoding tokenizer, trained from scratch.
//!
//! Substitutes for the LLaMA-2 tokenizer the paper preprocesses with: a
//! classic byte-level BPE. Training greedily merges the most frequent
//! adjacent token pair until the target vocabulary size is reached; encoding
//! applies merges in training order. Both rewrite only a merge's own
//! occurrences in a linked list of the text's tokens: training keeps its
//! pair counts and an index of where each pair starts, encoding takes the
//! pairs present from a heap by rank.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use serde::{Deserialize, Serialize};

/// A trained byte-pair encoder.
///
/// # Examples
///
/// ```
/// use dos_data::BpeTokenizer;
/// let tok = BpeTokenizer::train("the cat sat on the mat. the cat sat.", 300);
/// let ids = tok.encode("the cat");
/// assert_eq!(tok.decode(&ids), "the cat");
/// assert!(tok.vocab_size() >= 256);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BpeTokenizer {
    /// Merge rules in training order: (left, right) -> new token id.
    merges: Vec<(u32, u32)>,
    /// Token id -> byte sequence.
    vocab: Vec<Vec<u8>>,
}

/// No neighbour, or a position merged away.
const NONE: u32 = u32::MAX;

/// A text's tokens as a doubly linked list over its byte positions. A merge
/// writes its new token at the pair's left position and unlinks the right
/// one, so every position keeps its place in text order.
struct Chain {
    ids: Vec<u32>,
    prev: Vec<u32>,
    next: Vec<u32>,
}

impl Chain {
    fn new(text: &str) -> Chain {
        let n = u32::try_from(text.len()).ok().filter(|&n| n < NONE).expect("text under 4 GiB");
        Chain {
            ids: text.bytes().map(u32::from).collect(),
            prev: (0..n).map(|i| i.wrapping_sub(1)).collect(),
            next: (1..=n).map(|i| if i == n { NONE } else { i }).collect(),
        }
    }

    /// The pair that starts at position `i`, if there is a position `i`
    /// that still holds a token and has a right neighbour.
    fn pair_at(&self, i: u32) -> Option<(u32, u32)> {
        let j = *self.next.get(i as usize)?;
        let id = self.ids[i as usize];
        (id != NONE && j != NONE).then(|| (id, self.ids[j as usize]))
    }

    /// Replaces the pair that starts at `i` with the token `id`; returns
    /// the position before `i`.
    fn merge_at(&mut self, i: u32, id: u32) -> u32 {
        let j = self.next[i as usize];
        let k = self.next[j as usize];
        self.ids[i as usize] = id;
        self.ids[j as usize] = NONE;
        self.next[i as usize] = k;
        if k != NONE {
            self.prev[k as usize] = i;
        }
        self.prev[i as usize]
    }

    fn into_ids(self) -> Vec<u32> {
        self.ids.into_iter().filter(|&id| id != NONE).collect()
    }
}

/// One pair's windows in the current text: how many, and the positions it
/// has started at (some since rewritten, which [`Chain::pair_at`] tells).
#[derive(Default)]
struct Windows {
    count: u32,
    at: Vec<u32>,
}

impl Windows {
    fn push(&mut self, at: u32) {
        self.count += 1;
        self.at.push(at);
    }
}

impl BpeTokenizer {
    /// Trains a tokenizer on `text` up to `vocab_size` entries (at least the
    /// 256 byte tokens; merges stop early if no pair repeats).
    pub fn train(text: &str, vocab_size: usize) -> BpeTokenizer {
        let mut vocab: Vec<Vec<u8>> = (0u16..256).map(|b| vec![b as u8]).collect();
        let mut merges = Vec::new();
        let mut chain = Chain::new(text);
        let mut pairs: HashMap<(u32, u32), Windows> = HashMap::new();
        for i in 0..chain.ids.len() as u32 {
            if let Some(pair) = chain.pair_at(i) {
                pairs.entry(pair).or_default().push(i);
            }
        }
        // Deterministic tie-break: highest count, then smallest pair. Each
        // pair whose count moved is pushed again; an entry that no longer
        // holds its pair's count is stale and skipped. A pair gains windows
        // only in the first count (two bytes) or in the merge that made its
        // newer token; after that its count only falls, so a pair left with
        // fewer than two is dropped for good.
        let mut best = BinaryHeap::new();
        let mut touched: Vec<(u32, u32)> = pairs.keys().copied().collect();
        while vocab.len() < vocab_size.max(256) {
            touched.sort_unstable();
            touched.dedup();
            for p in touched.drain(..) {
                match pairs.get(&p).map(|w| w.count) {
                    Some(count @ 2..) => best.push((count, Reverse(p))),
                    Some(_) => drop(pairs.remove(&p)),
                    None => {}
                }
            }
            let Some((count, Reverse(pair))) = best.pop() else { break };
            let Some(windows) = pairs.get_mut(&pair).filter(|w| w.count == count) else {
                continue;
            };
            let at = std::mem::take(&mut windows.at);
            let new_id = vocab.len() as u32;
            let mut bytes = vocab[pair.0 as usize].clone();
            bytes.extend_from_slice(&vocab[pair.1 as usize]);
            vocab.push(bytes);
            merges.push(pair);
            // Left to right, as one pass over the text merges: of a run
            // `a a a`, the first two. `at` is in text order already, as the
            // one pass that gave the pair its windows visited them in order.
            debug_assert!(at.is_sorted());
            for i in at {
                if chain.pair_at(i) != Some(pair) {
                    continue;
                }
                // The windows starting at i's neighbours and at i go, then
                // the two around the new token come.
                let (h, j) = (chain.prev[i as usize], chain.next[i as usize]);
                for p in [chain.pair_at(h), Some(pair), chain.pair_at(j)].into_iter().flatten() {
                    if let Some(w) = pairs.get_mut(&p) {
                        w.count -= 1;
                        touched.push(p);
                    }
                }
                let h = chain.merge_at(i, new_id);
                for p in [h, i] {
                    if let Some(pair) = chain.pair_at(p) {
                        pairs.entry(pair).or_default().push(p);
                        touched.push(pair);
                    }
                }
            }
        }
        BpeTokenizer { merges, vocab }
    }

    /// Number of tokens in the vocabulary.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Encodes text into token ids.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        // Each merge's rank by its pair; of a repeated pair the first, as
        // the later ones never find it.
        let ranks: HashMap<(u32, u32), u32> =
            self.merges.iter().enumerate().rev().map(|(rank, &pair)| (pair, rank as u32)).collect();
        let mut chain = Chain::new(text);
        // Keyed `rank << 32 | position`, lowest first: the merges' passes
        // in training order, each left to right. A merge only creates pairs
        // that hold its new token, and those rank after it, so no pass adds
        // to its own.
        let ranked = |chain: &Chain, i: u32| {
            let rank = chain.pair_at(i).and_then(|pair| ranks.get(&pair));
            rank.map(|&rank| Reverse(u64::from(rank) << 32 | u64::from(i)))
        };
        let mut heap: BinaryHeap<_> =
            (0..chain.ids.len() as u32).filter_map(|i| ranked(&chain, i)).collect();
        while let Some(Reverse(key)) = heap.pop() {
            let (rank, i) = ((key >> 32) as u32, key as u32);
            if chain.pair_at(i) == Some(self.merges[rank as usize]) {
                let h = chain.merge_at(i, 256 + rank);
                heap.extend([h, i].into_iter().filter_map(|p| ranked(&chain, p)));
            }
        }
        chain.into_ids()
    }

    /// Decodes token ids back into text (lossy for invalid UTF-8).
    ///
    /// # Panics
    ///
    /// Panics if an id is out of vocabulary.
    pub fn decode(&self, ids: &[u32]) -> String {
        let mut bytes = Vec::new();
        for &id in ids {
            bytes.extend_from_slice(&self.vocab[id as usize]);
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// The byte expansion of one token.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of vocabulary.
    pub fn token_bytes(&self, id: u32) -> &[u8] {
        &self.vocab[id as usize]
    }

    /// Number of learned merges.
    pub fn merge_count(&self) -> usize {
        self.merges.len()
    }

    /// Average bytes per token over `text` — the compression the tokenizer
    /// achieves (a trained tokenizer should beat 1.0 on in-domain text).
    pub fn bytes_per_token(&self, text: &str) -> f64 {
        let ids = self.encode(text);
        if ids.is_empty() {
            return 0.0;
        }
        text.len() as f64 / ids.len() as f64
    }

    /// Writes the tokenizer to `path` as JSON.
    ///
    /// # Errors
    ///
    /// Returns I/O or serialization errors.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        // One write of the whole document, so no error is left to a
        // buffer's drop.
        std::fs::write(path, serde_json::to_vec(self).map_err(std::io::Error::other)?)
    }

    /// Reads a tokenizer from `path`.
    ///
    /// # Errors
    ///
    /// Returns I/O errors, and [`std::io::ErrorKind::InvalidData`] for a
    /// file no training writes: one that does not parse, a vocabulary other
    /// than the 256 bytes plus one entry per merge, a merge naming an id at
    /// or above its own, or an entry other than its byte or the bytes of its
    /// merge's halves.
    pub fn load(path: &std::path::Path) -> std::io::Result<BpeTokenizer> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let bytes = std::fs::read(path)?;
        let tok: BpeTokenizer =
            serde_json::from_slice(&bytes).map_err(|e| invalid(e.to_string()))?;
        tok.validate().map_err(invalid)?;
        Ok(tok)
    }

    /// What makes this a tokenizer no training returns, if anything:
    /// `encode` relies on merges naming only earlier ids, `decode` on every
    /// id in range.
    fn validate(&self) -> Result<(), String> {
        let (merges, vocab) = (&self.merges, &self.vocab);
        if vocab.len() != 256 + merges.len() {
            return Err(format!("{} vocab entries for {} merges", vocab.len(), merges.len()));
        }
        for (id, entry) in vocab.iter().enumerate() {
            let want = match id.checked_sub(256).map(|rank| merges[rank]) {
                None => vec![id as u8],
                Some((l, r)) if l.max(r) as usize >= id => {
                    return Err(format!("merge {} ({l}, {r}) names an id >= its own", id - 256));
                }
                Some((l, r)) => [&vocab[l as usize][..], &vocab[r as usize]].concat(),
            };
            if *entry != want {
                return Err(format!("token {id} spells {entry:?}, not {want:?}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Corpus;
    use proptest::prelude::*;

    /// The trainer as one full pass per merge: every window recounted,
    /// the best pair picked by a scan, the text copied with it merged.
    fn train_reference(text: &str, vocab_size: usize) -> BpeTokenizer {
        let mut vocab: Vec<Vec<u8>> = (0u16..256).map(|b| vec![b as u8]).collect();
        let mut merges = Vec::new();
        let mut ids: Vec<u32> = text.bytes().map(u32::from).collect();

        while vocab.len() < vocab_size.max(256) {
            let mut counts: HashMap<(u32, u32), usize> = HashMap::new();
            for w in ids.windows(2) {
                *counts.entry((w[0], w[1])).or_insert(0) += 1;
            }
            // Deterministic tie-break: highest count, then smallest pair.
            let best = counts
                .into_iter()
                .filter(|&(_, c)| c >= 2)
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)));
            let Some((pair, _)) = best else { break };
            let new_id = vocab.len() as u32;
            let mut bytes = vocab[pair.0 as usize].clone();
            bytes.extend_from_slice(&vocab[pair.1 as usize]);
            vocab.push(bytes);
            merges.push(pair);
            ids = apply_merge(&ids, pair, new_id);
        }
        BpeTokenizer { merges, vocab }
    }

    /// The encoder as one full pass per merge, in training order.
    fn encode_reference(tok: &BpeTokenizer, text: &str) -> Vec<u32> {
        let mut ids: Vec<u32> = text.bytes().map(u32::from).collect();
        for (rank, &pair) in tok.merges.iter().enumerate() {
            ids = apply_merge(&ids, pair, (256 + rank) as u32);
        }
        ids
    }

    fn apply_merge(ids: &[u32], pair: (u32, u32), new_id: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(ids.len());
        let mut i = 0;
        while i < ids.len() {
            if i + 1 < ids.len() && ids[i] == pair.0 && ids[i + 1] == pair.1 {
                out.push(new_id);
                i += 2;
            } else {
                out.push(ids[i]);
                i += 1;
            }
        }
        out
    }

    /// Asserts the trainer and the encoder equal their twins on `text`.
    fn matches_twins(text: &str, vocab_size: usize) -> BpeTokenizer {
        let tok = BpeTokenizer::train(text, vocab_size);
        let want = train_reference(text, vocab_size);
        assert_eq!(tok.merges, want.merges, "merges of {text:?} at {vocab_size}");
        assert_eq!(tok.vocab, want.vocab);
        assert_eq!(tok.encode(text), encode_reference(&want, text), "encoding {text:?}");
        tok
    }

    pub(crate) fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            w.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    #[test]
    fn round_trip_is_lossless() {
        let text = "hello hello world, the quick brown fox! \u{1F600}";
        let tok = BpeTokenizer::train(text, 300);
        assert_eq!(tok.decode(&tok.encode(text)), text);
        // Also round-trips text it was not trained on.
        let other = "completely different zebra text";
        assert_eq!(tok.decode(&tok.encode(other)), other);
    }

    #[test]
    fn merges_compress_repeated_text() {
        let text = "ababababababababab abab abab";
        let tok = BpeTokenizer::train(text, 300);
        let ids = tok.encode("abababab");
        assert!(ids.len() < 8, "expected compression, got {} tokens", ids.len());
    }

    #[test]
    fn vocab_grows_to_target_when_data_allows() {
        let text = "the cat sat on the mat and the dog sat on the log ".repeat(20);
        let tok = BpeTokenizer::train(&text, 280);
        assert_eq!(tok.vocab_size(), 280);
    }

    #[test]
    fn training_is_deterministic() {
        let text = "deterministic deterministic determinism";
        let a = BpeTokenizer::train(text, 280);
        let b = BpeTokenizer::train(text, 280);
        assert_eq!(a.encode(text), b.encode(text));
    }

    #[test]
    fn stops_when_no_pair_repeats() {
        let tok = BpeTokenizer::train("abcdefg", 1000);
        assert!(tok.vocab_size() < 300);
    }

    #[test]
    fn token_bytes_expansion() {
        let tok = BpeTokenizer::train("aaaa aaaa", 260);
        assert_eq!(tok.token_bytes(b'a' as u32), b"a");
        assert!(tok.merge_count() >= 1);
    }

    #[test]
    fn trained_tokenizer_compresses_in_domain_text() {
        let text = "the quick brown fox jumps over the lazy dog ".repeat(30);
        let tok = BpeTokenizer::train(&text, 400);
        assert!(
            tok.bytes_per_token(&text) > 1.8,
            "compression {} too weak",
            tok.bytes_per_token(&text)
        );
        // Byte-level fallback on out-of-domain text: still >= 1 byte/token.
        assert!(tok.bytes_per_token("zzz qqq xxx") >= 1.0);
    }

    #[test]
    fn overlapping_runs_merge_left_to_right() {
        for text in ["", "a", "aa", "aaa", "aaaa", "aaaaa", "abab", "ababa", "aaabaaab", "abbba"] {
            matches_twins(text, 400);
        }
        // `a a a` merges its first two: 256 = (a, a), then the lone `a`.
        let tok = matches_twins(&"aaa ".repeat(4), 257);
        assert_eq!(tok.merges, [(b'a' as u32, b'a' as u32)]);
        assert_eq!(tok.encode("aaa"), [256, b'a' as u32]);
    }

    #[test]
    fn a_repeated_merge_encodes_by_its_first_rank() {
        let mut tok = BpeTokenizer::train("aaaa aaaa", 257);
        tok.merges.push(tok.merges[0]);
        tok.vocab.push(tok.vocab[256].clone());
        assert_eq!(tok.validate(), Ok(()));
        assert_eq!(tok.encode("aaaa"), encode_reference(&tok, "aaaa"));
    }

    /// The merges of `train_dp2`'s corpus, captured from the
    /// one-pass-per-merge trainer (the packed stream is pinned in
    /// `dataset`).
    #[test]
    fn corpus_merges_are_pinned() {
        for (seed, want) in
            [(7, 0x1e1a_7cce_43d4_12e2), (11, 0x96b9_ceb0_7278_e987), (23, 0xd09f_d501_7b9f_d17a)]
        {
            let tok = BpeTokenizer::train(&Corpus::synthetic(seed, 400).joined_text(), 512);
            assert_eq!(tok.merge_count(), 256);
            let got = fnv1a(tok.merges.iter().flat_map(|&(l, r)| [u64::from(l), u64::from(r)]));
            assert_eq!(got, want, "seed {seed}: merges digest {got:#018x}");
        }
    }

    /// Every merge and every record's ids of 20 corpora, against the twins.
    #[test]
    #[ignore = "about 7 s in release; CI runs it with --ignored exhaustive"]
    fn exhaustive_bpe_matches_twins_on_corpora() {
        for seed in 0..20 {
            let corpus = Corpus::synthetic(seed, 400);
            let tok = matches_twins(&corpus.joined_text(), 512);
            for r in corpus.records() {
                assert_eq!(tok.encode(&r.text), encode_reference(&tok, &r.text));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn trainer_and_encoder_match_their_twins(
            letters in 2u8..5,
            draws in proptest::collection::vec(0u8..4, 0..400),
            vocab_size in 256usize..401,
        ) {
            let text: String = draws.iter().map(|&d| char::from(b'a' + d % letters)).collect();
            let tok = matches_twins(&text, vocab_size);
            let other: String = draws.iter().rev().map(|&d| char::from(b'a' + d)).collect();
            prop_assert_eq!(tok.encode(&other), encode_reference(&tok, &other));
        }
    }

    fn saved(tok: &BpeTokenizer, tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("dos-bpe-{tag}-{}.json", std::process::id()));
        tok.save(&path).unwrap();
        path
    }

    #[test]
    fn save_load_round_trip() {
        let tok = trained();
        let path = saved(&tok, "round-trip");
        let loaded = BpeTokenizer::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!((&loaded.merges, &loaded.vocab), (&tok.merges, &tok.vocab));
        let sample = "persist this text";
        assert_eq!(tok.encode(sample), loaded.encode(sample));
    }

    /// Loading `tok` once saved fails with `InvalidData` naming `what`.
    fn refused(tok: &BpeTokenizer, tag: &str, what: &str) {
        let path = saved(tok, tag);
        let err = BpeTokenizer::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(what), "{err}");
    }

    fn trained() -> BpeTokenizer {
        BpeTokenizer::train("persistence persistence persist", 300)
    }

    #[test]
    fn load_refuses_a_file_that_does_not_parse() {
        let path = saved(&trained(), "truncated");
        let json = std::fs::read(&path).unwrap();
        std::fs::write(&path, &json[..json.len() / 2]).unwrap();
        let err = BpeTokenizer::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        let missing = std::env::temp_dir().join("dos-bpe-no-such-file.json");
        assert_eq!(BpeTokenizer::load(&missing).unwrap_err().kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn load_refuses_a_vocab_not_one_entry_per_merge() {
        let mut tok = trained();
        tok.vocab.pop();
        refused(&tok, "short-vocab", "vocab entries");
        let mut tok = trained();
        tok.merges.pop();
        refused(&tok, "long-vocab", "vocab entries");
    }

    #[test]
    fn load_refuses_a_merge_of_a_later_id() {
        let mut tok = trained();
        let own = 256 + tok.merges.len() as u32 - 1;
        tok.merges.last_mut().unwrap().1 = own;
        refused(&tok, "forward-merge", ">= its own");
    }

    #[test]
    fn load_refuses_an_entry_that_is_not_its_halves() {
        let mut tok = trained();
        tok.vocab.last_mut().unwrap().push(b'!');
        refused(&tok, "bad-entry", "spells");
        let mut tok = trained();
        tok.vocab[b'x' as usize] = b"y".to_vec();
        refused(&tok, "bad-byte", "token 120 spells");
    }
}
