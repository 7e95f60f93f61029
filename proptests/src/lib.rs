//! Nothing lives here: the package exists for the property suites under
//! `tests/`, which exercise the `scidb` facade through `proptest`.
