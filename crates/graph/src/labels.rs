//! Interning of human-readable vertex label names.
//!
//! The partitioning and motif-mining code only ever sees compact [`Label`]
//! integers; this module maps them back and forth to the string names used in
//! input files and in the paper's figures (`"a"`, `"b"`, `"person"`,
//! `"account"`, ...).

use crate::fxhash::FxHashMap;
use crate::ids::Label;

/// A bidirectional map between label names and compact [`Label`] ids.
///
/// Interning is append-only: a name, once interned, keeps its id for the
/// lifetime of the interner, which keeps ids stable across the whole
/// experiment pipeline.
#[derive(Debug, Clone, Default)]
pub struct LabelInterner {
    names: Vec<String>,
    index: FxHashMap<String, Label>,
}

impl LabelInterner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an interner pre-populated with single-letter labels
    /// `a, b, c, ...` — the alphabet used throughout the paper's examples.
    pub fn with_alphabet(count: usize) -> Self {
        let mut interner = Self::new();
        for i in 0..count {
            let name = if i < 26 {
                ((b'a' + i as u8) as char).to_string()
            } else {
                format!("l{i}")
            };
            interner.intern(&name);
        }
        interner
    }

    /// Intern `name`, returning its stable label id.
    pub(crate) fn intern(&mut self, name: &str) -> Label {
        if let Some(&label) = self.index.get(name) {
            return label;
        }
        let label = Label::new(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), label);
        label
    }

    /// Look up a label id by name without interning.
    pub fn get(&self, name: &str) -> Option<Label> {
        self.index.get(name).copied()
    }

    /// The name of a label, if it was interned here.
    pub fn name(&self, label: Label) -> Option<&str> {
        self.names.get(label.index()).map(String::as_str)
    }

    /// Number of distinct labels interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no labels have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate over `(Label, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Label, &str)> + '_ {
        self.names
            .iter()
            .enumerate()
            .map(|(i, name)| (Label::new(i as u32), name.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut interner = LabelInterner::new();
        let a1 = interner.intern("person");
        let b = interner.intern("account");
        let a2 = interner.intern("person");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.name(a1), Some("person"));
        assert_eq!(interner.get("account"), Some(b));
        assert_eq!(interner.get("missing"), None);
    }

    #[test]
    fn alphabet_matches_paper_labels() {
        let interner = LabelInterner::with_alphabet(4);
        assert_eq!(interner.get("a"), Some(Label::new(0)));
        assert_eq!(interner.get("d"), Some(Label::new(3)));
        assert_eq!(interner.len(), 4);
    }

    #[test]
    fn iteration_is_in_id_order() {
        let interner = LabelInterner::with_alphabet(3);
        let collected: Vec<_> = interner
            .iter()
            .map(|(l, n)| (l.raw(), n.to_owned()))
            .collect();
        assert_eq!(
            collected,
            vec![
                (0, "a".to_owned()),
                (1, "b".to_owned()),
                (2, "c".to_owned())
            ]
        );
    }

    #[test]
    fn large_alphabet_uses_numbered_names() {
        let interner = LabelInterner::with_alphabet(30);
        assert_eq!(interner.get("l27"), Some(Label::new(27)));
    }
}
