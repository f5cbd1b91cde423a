//! Every row of the engine equivalence matrix (`tests/common/matrix.rs`)
//! on every datagen preset. The executor, scheduler and backend suites run
//! the slices of the same table along their own axes.

mod common;

use common::matrix;
use gumbo::datagen::queries;

#[test]
fn every_row_matches_the_reference_on_every_preset() {
    matrix::check(queries::presets(), |_| true);
}
