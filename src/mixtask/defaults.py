"""Shipped default settings.

The standard recipe: 20 multi-task epochs at 5e-5 with mixture ratio 0.5,
then 6 per-task fine-tuning epochs at 5e-6; batch size 16 for the first
source family and 40 for the second; member-selection dev-accuracy
thresholds (percent) per task; 5-fold cross validation for the
answer-ranking task; 2 negatives per positive for page-grouped QA corpora,
split 27,391 / 2,936; dev reshuffle takes the last 25 questions from each
side.
"""
from __future__ import annotations

MIXTURE_RATIO = 0.5
EPOCHS_MULTITASK = 20
EPOCHS_FINETUNE = 6
LR_MULTITASK = 5e-5
LR_FINETUNE = 5e-6

# Member-selection thresholds: keep models whose dev accuracy (percent) is
# strictly above these.
MEMBER_THRESHOLDS = {
    "mednli": 87.7,
    "rqe": 83.5,
    "qa": 83.0,
}

CV_FOLDS = 5

NEGATIVES_PER_POSITIVE = 2

DEV_RESHUFFLE_QUESTIONS = 25
DEV_RESHUFFLE_TAGGED_QUESTIONS = 25

FEATURE_DIM = 256
HIDDEN_DIM = 32
