//! `sklearn.neural_network.MLPClassifier` stand-in.
//!
//! The paper: “Similar to the Growing model, the ANN was configured with
//! 30 hidden units and the default Adam optimizer.” scikit-learn defaults
//! reproduced here: ReLU activation, Adam at lr 1e-3, mini-batches of
//! `min(200, n)`, `max_iter` epochs with a no-improvement early stop
//! (`tol` 1e-4 over `n_iter_no_change` 10 epochs).

use ctlm_nn::{Adam, BatchIter, CrossEntropyLoss, Net, Workspace};
use ctlm_tensor::init::seeded_rng;
use ctlm_tensor::Csr;

use crate::{Classifier, FitReport};

/// Configurable MLP baseline.
#[derive(Clone, Debug)]
pub struct MlpClassifier {
    /// Hidden layer width (paper: 30).
    pub hidden: usize,
    /// Number of classes.
    pub n_classes: usize,
    /// Adam learning rate (sklearn default 1e-3).
    pub lr: f32,
    /// Epoch cap (sklearn default 200).
    pub max_iter: usize,
    /// Loss-improvement tolerance for early stopping.
    pub tol: f32,
    /// Early-stop patience in epochs.
    pub n_iter_no_change: usize,
    /// Mini-batch size; `None` uses sklearn's `min(200, n)` default.
    pub batch_size: Option<usize>,
    /// RNG seed.
    pub seed: u64,
    net: Option<Net>,
}

impl MlpClassifier {
    /// The paper's configuration: 30 hidden units, default Adam.
    pub fn paper_default(n_classes: usize, seed: u64) -> Self {
        Self {
            hidden: 30,
            n_classes,
            lr: 1e-3,
            max_iter: 200,
            tol: 1e-4,
            n_iter_no_change: 10,
            batch_size: None,
            seed,
            net: None,
        }
    }

    /// Access to the trained network (tests, ensemble reuse).
    pub fn net(&self) -> Option<&Net> {
        self.net.as_ref()
    }
}

impl Classifier for MlpClassifier {
    fn fit(&mut self, x: &Csr, y: &[u8]) -> FitReport {
        assert_eq!(x.rows(), y.len(), "sample count mismatch");
        let mut rng = seeded_rng(self.seed);
        let mut net = Net::mlp(x.cols(), self.hidden, self.n_classes, &mut rng);
        let loss_fn = CrossEntropyLoss::uniform(self.n_classes);
        let mut opt = Adam::new(self.lr);
        let batch_size = self.batch_size.unwrap_or_else(|| 200.min(x.rows())).max(1);
        let mut batches = BatchIter::new(x.rows(), batch_size, self.seed);
        let mut ws = Workspace::new();

        let mut best_loss = f32::INFINITY;
        let mut since_best = 0usize;
        let mut epochs = 0usize;
        let mut converged = false;
        for _ in 0..self.max_iter {
            epochs += 1;
            let mut epoch_loss = 0.0f32;
            let mut nb = 0usize;
            for batch in batches.epoch() {
                let xb = x.select_rows(&batch);
                let yb: Vec<u8> = batch.iter().map(|&i| y[i]).collect();
                epoch_loss += net.train_batch(&xb, &yb, &loss_fn, &mut ws);
                opt.step(&mut net);
                nb += 1;
            }
            epoch_loss /= nb.max(1) as f32;
            if epoch_loss < best_loss - self.tol {
                best_loss = epoch_loss;
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= self.n_iter_no_change {
                    converged = true;
                    break;
                }
            }
        }
        self.net = Some(net);
        FitReport { epochs, converged }
    }

    fn predict(&self, x: &Csr) -> Vec<u8> {
        self.net.as_ref().expect("fit before predict").predict(x)
    }

    fn name(&self) -> &'static str {
        "MLP Classifier"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::train_accuracy;

    #[test]
    fn learns_separable_problem() {
        let mut clf = MlpClassifier::paper_default(4, 7);
        clf.max_iter = 80;
        clf.batch_size = Some(32);
        let acc = train_accuracy(&mut clf, 200, 4);
        assert!(acc > 0.95, "MLP training accuracy {acc}");
    }

    #[test]
    fn early_stop_reports_convergence() {
        let mut clf = MlpClassifier::paper_default(3, 1);
        clf.max_iter = 400;
        clf.batch_size = Some(16);
        let (x, y) = crate::test_support::toy_problem(120, 3, 5);
        let report = clf.fit(&x, &y);
        assert!(report.converged, "expected no-improvement early stop");
        assert!(report.epochs < 400);
    }

    #[test]
    #[should_panic(expected = "fit before predict")]
    fn predict_before_fit_panics() {
        let clf = MlpClassifier::paper_default(3, 0);
        let (x, _) = crate::test_support::toy_problem(5, 3, 0);
        let _ = clf.predict(&x);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = crate::test_support::toy_problem(100, 3, 9);
        let mut a = MlpClassifier::paper_default(3, 11);
        a.max_iter = 20;
        let mut b = MlpClassifier::paper_default(3, 11);
        b.max_iter = 20;
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.predict(&x), b.predict(&x));
    }
}
