//! Rows of `u32` items in one flat array (compressed sparse rows).

/// Rows of `u32` items in one flat array: row `i` is
/// `items[at[i]..at[i + 1]]`.
pub(crate) struct Csr {
    at: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    pub(crate) fn from_rows<R: IntoIterator<Item = u32>>(
        rows: impl IntoIterator<Item = R>,
    ) -> Self {
        let mut at = vec![0];
        let mut items = Vec::new();
        for row in rows {
            items.extend(row);
            at.push(items.len() as u32);
        }
        Csr { at, items }
    }

    pub(crate) fn len(&self) -> usize {
        self.at.len() - 1
    }

    pub(crate) fn row(&self, i: usize) -> &[u32] {
        &self.items[self.at[i] as usize..self.at[i + 1] as usize]
    }

    /// The reverse relation over `cols` columns: row `c` lists, in
    /// ascending order, every row that holds `c`, once per time it holds
    /// it.
    pub(crate) fn transpose(&self, cols: usize) -> Csr {
        let mut at = vec![0u32; cols + 1];
        for &c in &self.items {
            at[c as usize + 1] += 1;
        }
        for i in 1..at.len() {
            at[i] += at[i - 1];
        }
        let mut cursor = at.clone();
        let mut items = vec![0u32; self.items.len()];
        for r in 0..self.len() {
            for &c in self.row(r) {
                items[cursor[c as usize] as usize] = r as u32;
                cursor[c as usize] += 1;
            }
        }
        Csr { at, items }
    }
}
