//! Basic blocks.

use crate::inst::InstId;

/// Index of a basic block in its function. The default is block 0; it
/// fills the unused slots of an [`InlineList`](crate::InlineList).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub(crate) u32);

impl BlockId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
    /// Reconstructs a block id from a raw index.
    pub fn from_index(index: usize) -> Self {
        BlockId(index as u32)
    }
}

/// A basic block: a label and an ordered instruction list whose last
/// instruction is the terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockData {
    /// Label, unique within the function.
    pub name: String,
    /// Ordered instructions; the terminator is last.
    pub insts: Vec<InstId>,
}

impl BlockData {
    /// Creates an empty block with the given label.
    pub fn new(name: impl Into<String>) -> Self {
        BlockData {
            name: name.into(),
            insts: Vec::new(),
        }
    }

    /// Last instruction, if any (the terminator once the block is complete).
    pub fn last_inst(&self) -> Option<InstId> {
        self.insts.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_basics() {
        let mut b = BlockData::new("entry");
        assert_eq!(b.last_inst(), None);
        b.insts.push(InstId(0));
        b.insts.push(InstId(1));
        assert_eq!(b.last_inst(), Some(InstId(1)));
        assert_eq!(b.name, "entry");
    }
}
