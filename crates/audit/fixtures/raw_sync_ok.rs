// Negative fixture: primitives come through a sync facade.
use crate::sync::Mutex;

pub struct Counter {
    inner: Mutex<u64>,
}
