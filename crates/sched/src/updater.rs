//! Background model updates.
//!
//! “Updating ML model runs in parallel and won't block or slow down the
//! main cluster scheduler.” A dedicated thread owns the
//! [`GrowingModel`]; schedulers keep reading the previously installed
//! analyzer from the [`ModelRegistry`] while retraining proceeds, and the
//! refreshed analyzer is hot-swapped in on completion.

use std::thread::JoinHandle;

use std::sync::mpsc::{channel, Sender};

use ctlm_core::{GrowingModel, ModelRegistry, TrainConfig};
use ctlm_data::dataset::Dataset;
use ctlm_data::vocab::ValueVocab;

enum Msg {
    Train {
        dataset: Box<Dataset>,
        vocab: Box<ValueVocab>,
        seed: u64,
    },
    Shutdown,
}

/// Handle to the background updater thread.
pub struct ModelUpdater {
    tx: Sender<Msg>,
    handle: Option<JoinHandle<usize>>,
}

impl ModelUpdater {
    /// Spawns the updater; trained analyzers are installed into
    /// `registry`.
    pub fn spawn(registry: ModelRegistry, config: TrainConfig) -> Self {
        let (tx, rx) = channel::<Msg>();
        let handle = std::thread::spawn(move || {
            let mut model = GrowingModel::new(config);
            let mut steps_done = 0usize;
            while let Ok(msg) = rx.recv() {
                match msg {
                    Msg::Train {
                        dataset,
                        vocab,
                        seed,
                    } => {
                        let outcome = model.step(&dataset, seed);
                        if outcome.accepted || model.is_trained() {
                            // The vocabulary may already be wider than
                            // the step's dataset (values observed after
                            // the snapshot); `analyzer` pads for that.
                            registry.install(model.analyzer(*vocab));
                        }
                        steps_done += 1;
                    }
                    Msg::Shutdown => break,
                }
            }
            steps_done
        });
        Self {
            tx,
            handle: Some(handle),
        }
    }

    /// Queues a (dataset, vocabulary) pair for training. Non-blocking.
    pub fn submit(&self, dataset: Dataset, vocab: ValueVocab, seed: u64) {
        let _ = self.tx.send(Msg::Train {
            dataset: Box::new(dataset),
            vocab: Box::new(vocab),
            seed,
        });
    }

    /// Drains queued work, stops the thread, and returns how many steps
    /// it completed.
    pub fn shutdown(mut self) -> usize {
        let _ = self.tx.send(Msg::Shutdown);
        self.handle
            .take()
            .map(|h| h.join().unwrap_or(0))
            .unwrap_or(0)
    }
}

impl Drop for ModelUpdater {
    fn drop(&mut self) {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctlm_data::dataset::{DatasetBuilder, NUM_GROUPS};
    use ctlm_trace::AttrValue;

    /// A trivially learnable dataset over a small vocabulary.
    fn dataset_and_vocab() -> (Dataset, ValueVocab) {
        let mut vocab = ValueVocab::new();
        for v in 0..12 {
            vocab.observe(0, &AttrValue::Int(v));
        }
        let width = vocab.len();
        let mut b = DatasetBuilder::new(width, NUM_GROUPS);
        for k in 1..12usize {
            for _ in 0..25 {
                let entries: Vec<(usize, f32)> = (k + 1..width).map(|c| (c, 1.0)).collect();
                b.push(entries, ctlm_data::dataset::group_for_count(k, 1));
            }
        }
        (b.snapshot(width), vocab)
    }

    #[test]
    fn updater_trains_and_installs_without_blocking_caller() {
        let registry = ModelRegistry::new();
        let updater = ModelUpdater::spawn(
            registry.clone(),
            TrainConfig {
                epochs_limit: 60,
                max_attempts: 2,
                ..TrainConfig::default()
            },
        );
        assert!(
            !registry.is_ready(),
            "registry empty until training completes"
        );
        let (ds, vocab) = dataset_and_vocab();
        updater.submit(ds, vocab, 1);
        // The caller (the "scheduler") is free immediately; wait for the
        // install to land.
        let steps = updater.shutdown();
        assert_eq!(steps, 1);
        assert!(
            registry.is_ready(),
            "analyzer must be installed after training"
        );
        let analyzer = registry.get().unwrap();
        assert_eq!(analyzer.features(), 13);
    }

    #[test]
    fn multiple_submissions_process_in_order() {
        let registry = ModelRegistry::new();
        let updater = ModelUpdater::spawn(
            registry.clone(),
            TrainConfig {
                epochs_limit: 40,
                max_attempts: 1,
                ..TrainConfig::default()
            },
        );
        let (ds, vocab) = dataset_and_vocab();
        updater.submit(ds.clone(), vocab.clone(), 1);
        updater.submit(ds, vocab, 2);
        let steps = updater.shutdown();
        assert_eq!(steps, 2);
        assert!(registry.is_ready());
    }

    #[test]
    fn drop_shuts_the_thread_down() {
        let registry = ModelRegistry::new();
        let updater = ModelUpdater::spawn(registry, TrainConfig::default());
        drop(updater); // must not hang
    }
}
