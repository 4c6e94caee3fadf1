// Golden fixture: the disciplined versions of the same operations —
// one consistent order, guards dropped before channel ops.
use std::sync::Mutex;

struct Shared {
    alpha: Mutex<u64>,
    beta: Mutex<u64>,
}

impl Shared {
    fn order_ab(&self) -> u64 {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        *a + *b
    }

    fn also_order_ab(&self) -> u64 {
        let a = self.alpha.lock();
        drop(a);
        let b = self.beta.lock();
        *b
    }

    fn send_after_drop(&self, tx: &Sender<u64>) {
        let g = self.alpha.lock();
        let v = *g;
        drop(g);
        tx.send(v);
    }

    fn scoped_guard(&self, tx: &Sender<u64>) {
        let v = {
            let g = self.beta.lock();
            *g
        };
        tx.send(v);
    }
}

// The disciplined drain-and-ship (same shape as in `locks_bad.rs`): the
// seal drains the map under its mutex, the guard dies with the block,
// and only the frozen snapshot crosses the channel — folders never wait
// on the sealer shipping its result.
struct IngestPlane {
    overflow: Mutex<Vec<(u64, u64)>>,
}

impl IngestPlane {
    fn seal_then_send(&self, window: u64, tx: &Sender<Vec<(u64, u64)>>) {
        let drained: Vec<(u64, u64)> = {
            let mut ov = self.overflow.lock();
            ov.drain(..).filter(|e| e.0 == window).collect()
        };
        tx.send(drained);
    }
}
