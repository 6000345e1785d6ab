//! A table of live entries reached by `u32` keys.

/// A table of live entries, each reached by the `u32` key it was
/// inserted under (its slot). A removed entry's slot goes to the next
/// insert, so the table holds as many slots as entries were ever live at
/// once, and a lookup is one index.
pub(crate) struct Slab<T> {
    pub(crate) slots: Vec<Option<T>>,
    /// Slots of removed entries, reused last-freed first.
    free: Vec<u32>,
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `value` and returns its key.
    pub(crate) fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(key) => {
                self.slots[key as usize] = Some(value);
                key
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u32
            }
        }
    }

    pub(crate) fn get(&self, key: u32) -> Option<&T> {
        self.slots.get(key as usize)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, key: u32) -> Option<&mut T> {
        self.slots.get_mut(key as usize)?.as_mut()
    }

    /// Takes the entry out and frees its slot.
    pub(crate) fn remove(&mut self, key: u32) -> Option<T> {
        let value = self.slots.get_mut(key as usize)?.take()?;
        self.free.push(key);
        Some(value)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.free.len() == self.slots.len()
    }
}
