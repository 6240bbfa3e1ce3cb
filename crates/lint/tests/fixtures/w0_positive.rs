//! W0 fixture — both suppressions below are dead weight and must each
//! produce a W0 finding: the first names a rule that no longer fires
//! here, the second names a rule that does not exist.

// advdiag::allow(F1, legacy prototype shim, removed in the cleanup pass)
pub fn tidy() -> u8 {
    7
}

// advdiag::allow(Z9, typo for an id that never existed)
pub fn also_tidy() -> u8 {
    9
}
