"""Cross-data label completion: merge ARFF datasets sharing a feature space
and iteratively fill their sparse joint label matrix with the most confident
predictions of a multi-task neural network."""

from .arff import ArffError, ArffRelation, AttributeDecl, parse_arff, write_arff
from .dataset import DatasetError, MultiTargetDataset, TaskSchema, assemble, drop_labels, split
from .metrics import evaluate, pearson_cc, pseudo_label_accuracy, uar
from .model import MtShlNetwork, NetworkConfig, init_network, mc_predict, train
from .trainer import Assignments, CdlcConfig, CdlcResult, run_cdlc, select_top_k

__all__ = [
    "ArffError", "ArffRelation", "AttributeDecl", "parse_arff", "write_arff",
    "DatasetError", "MultiTargetDataset", "TaskSchema", "assemble", "drop_labels", "split",
    "evaluate", "pearson_cc", "pseudo_label_accuracy", "uar",
    "MtShlNetwork", "NetworkConfig", "init_network", "mc_predict", "train",
    "Assignments", "CdlcConfig", "CdlcResult", "run_cdlc", "select_top_k",
]
