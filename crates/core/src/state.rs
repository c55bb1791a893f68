//! Switch states and the network state (paper, Section 2).

use iadm_topology::Size;

/// The two routing behaviors (states) of an IADM switch.
///
/// A switch in state `C` routes according to the function `C_i(j, t_i)` and
/// a switch in state `C̄` according to `C̄_i(j, t_i)`; see
/// [`connect`](crate::connect). When every switch is in state `C` the IADM
/// network behaves exactly like the embedded ICube network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SwitchState {
    /// State `C`: route by `C_i(j, t_i)` (the ICube-emulating state).
    #[default]
    C,
    /// State `C̄`: route by `C̄_i(j, t_i)` (the "spare link" state).
    Cbar,
}

impl SwitchState {
    /// The other state.
    #[inline]
    pub fn flipped(self) -> SwitchState {
        match self {
            SwitchState::C => SwitchState::Cbar,
            SwitchState::Cbar => SwitchState::C,
        }
    }

    /// The paper's TSDT encoding: state bit 0 is `C`, 1 is `C̄`.
    #[inline]
    pub fn from_bit(b: usize) -> SwitchState {
        if b == 0 {
            SwitchState::C
        } else {
            SwitchState::Cbar
        }
    }

    /// The TSDT state bit for this state.
    #[inline]
    pub fn to_bit(self) -> usize {
        match self {
            SwitchState::C => 0,
            SwitchState::Cbar => 1,
        }
    }
}

/// The state of the whole network: one [`SwitchState`] per switch position.
///
/// The paper: "the term state of the network is used to denote collectively
/// the states of all switches in the network". There are `2^(N·n)` network
/// states; this type stores one as a dense bitset.
///
/// # Example
///
/// ```
/// use iadm_core::{NetworkState, SwitchState};
/// use iadm_topology::Size;
///
/// # fn main() -> Result<(), iadm_topology::SizeError> {
/// let size = Size::new(8)?;
/// let mut st = NetworkState::all_c(size);
/// assert_eq!(st.get(1, 3), SwitchState::C);
/// st.set(1, 3, SwitchState::Cbar);
/// assert_eq!(st.get(1, 3), SwitchState::Cbar);
/// st.flip(1, 3);
/// assert_eq!(st.get(1, 3), SwitchState::C);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NetworkState {
    size: Size,
    words: Vec<u64>,
}

impl NetworkState {
    /// All switches in state `C`: the network emulates the ICube network.
    pub fn all_c(size: Size) -> Self {
        NetworkState {
            size,
            words: vec![0; size.switch_count().div_ceil(64)],
        }
    }

    /// Re-sizes the state to `size` with every switch in state `C`
    /// (equal to [`NetworkState::all_c`]`(size)`), reusing the
    /// allocation.
    pub fn reset(&mut self, size: Size) {
        self.size = size;
        self.words.clear();
        self.words.resize(size.switch_count().div_ceil(64), 0);
    }

    /// All switches in state `C̄`.
    pub fn all_cbar(size: Size) -> Self {
        let mut st = NetworkState::all_c(size);
        for stage in size.stage_indices() {
            for j in size.switches() {
                st.set(stage, j, SwitchState::Cbar);
            }
        }
        st
    }

    /// A network state drawn uniformly at random.
    pub fn random<R: iadm_rng::Rng>(size: Size, rng: &mut R) -> Self {
        let mut st = NetworkState::all_c(size);
        for word in &mut st.words {
            *word = rng.next_u64();
        }
        st
    }

    /// The network size.
    pub fn size(&self) -> Size {
        self.size
    }

    /// State of switch `switch` at `stage`.
    ///
    /// # Panics
    ///
    /// Panics if `stage` or `switch` is out of range.
    #[inline]
    pub fn get(&self, stage: usize, switch: usize) -> SwitchState {
        let idx = self.size.flat_index(stage, switch);
        SwitchState::from_bit(((self.words[idx / 64] >> (idx % 64)) & 1) as usize)
    }

    /// Sets the state of switch `switch` at `stage`.
    ///
    /// # Panics
    ///
    /// Panics if `stage` or `switch` is out of range.
    #[inline]
    pub fn set(&mut self, stage: usize, switch: usize, state: SwitchState) {
        let idx = self.size.flat_index(stage, switch);
        let mask = 1u64 << (idx % 64);
        match state {
            SwitchState::C => self.words[idx / 64] &= !mask,
            SwitchState::Cbar => self.words[idx / 64] |= mask,
        }
    }

    /// Flips the state of switch `switch` at `stage` and returns the new
    /// state — the SSDT "self-repair" action.
    #[inline]
    pub fn flip(&mut self, stage: usize, switch: usize) -> SwitchState {
        let new = self.get(stage, switch).flipped();
        self.set(stage, switch, new);
        new
    }

    /// Number of switches currently in state `C̄`.
    pub fn cbar_count(&self) -> usize {
        let mut total: usize = self.words.iter().map(|w| w.count_ones() as usize).sum();
        // Mask out bits beyond switch_count (always zero by construction,
        // but recompute defensively after deserialization).
        let extra_bits = self.words.len() * 64 - self.size.switch_count();
        if extra_bits > 0 {
            if let Some(last) = self.words.last() {
                let valid = 64 - extra_bits;
                let invalid_ones = (last >> valid).count_ones() as usize;
                total -= invalid_ones;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iadm_rng::StdRng;

    fn size8() -> Size {
        Size::new(8).unwrap()
    }

    #[test]
    fn default_state_is_c() {
        assert_eq!(SwitchState::default(), SwitchState::C);
        let st = NetworkState::all_c(size8());
        for stage in 0..3 {
            for j in 0..8 {
                assert_eq!(st.get(stage, j), SwitchState::C);
            }
        }
    }

    #[test]
    fn bit_encoding_round_trips() {
        assert_eq!(SwitchState::from_bit(0), SwitchState::C);
        assert_eq!(SwitchState::from_bit(1), SwitchState::Cbar);
        assert_eq!(SwitchState::C.to_bit(), 0);
        assert_eq!(SwitchState::Cbar.to_bit(), 1);
        assert_eq!(SwitchState::C.flipped().flipped(), SwitchState::C);
    }

    #[test]
    fn set_get_independent_positions() {
        let mut st = NetworkState::all_c(size8());
        st.set(0, 0, SwitchState::Cbar);
        st.set(2, 7, SwitchState::Cbar);
        assert_eq!(st.get(0, 0), SwitchState::Cbar);
        assert_eq!(st.get(2, 7), SwitchState::Cbar);
        assert_eq!(st.get(1, 0), SwitchState::C);
        assert_eq!(st.cbar_count(), 2);
    }

    #[test]
    fn all_cbar_counts_everything() {
        let st = NetworkState::all_cbar(size8());
        assert_eq!(st.cbar_count(), 24);
    }

    #[test]
    fn flip_toggles() {
        let mut st = NetworkState::all_c(size8());
        assert_eq!(st.flip(1, 4), SwitchState::Cbar);
        assert_eq!(st.flip(1, 4), SwitchState::C);
        assert_eq!(st.cbar_count(), 0);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let size = Size::new(64).unwrap();
        let a = NetworkState::random(size, &mut StdRng::seed_from_u64(5));
        let b = NetworkState::random(size, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn large_sizes_cross_word_boundaries() {
        let size = Size::new(128).unwrap(); // 128*7 = 896 bits
        let mut st = NetworkState::all_c(size);
        st.set(6, 127, SwitchState::Cbar);
        st.set(0, 0, SwitchState::Cbar);
        assert_eq!(st.get(6, 127), SwitchState::Cbar);
        assert_eq!(st.get(0, 0), SwitchState::Cbar);
        assert_eq!(st.cbar_count(), 2);
    }
}
