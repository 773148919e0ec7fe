// Positive fixture: raw std::sync import in library code.
use std::sync::Mutex; // line 2: raw std::sync

pub struct Counter {
    inner: Mutex<u64>,
}
