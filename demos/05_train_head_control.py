"""Train the Q-learning head controller and watch it learn to fixate.

Each episode drops the agent into a fresh scene with one speaker somewhere
in the frontal field.  The head starts looking elsewhere; the agent hears a
short snippet, localizes it coarsely, and chooses pan/tilt steps.  Reward
arrives when the speaker's face lands near the center of view and when the
heard envelope correlates with the visible mouth.  An episode succeeds when
gaze stays on the speaker for three consecutive steps.

The script trains in fast mode, prints the success rate in blocks of
episodes so the learning curve is visible, then compares the greedy policy
against a random-action baseline on held-out scenes and saves the table for
the dataset demo.

Run:  python demos/05_train_head_control.py   (about a minute)
"""

from pathlib import Path

import numpy as np

from cocktail import agent


def main():
    episodes = 600
    config = agent.AgentConfig(fast=True)
    print(f"training for {episodes} fast-mode episodes ...")

    qtable = agent.new_qtable()
    outcomes = [
        result.success
        for _, _, result in agent.run_episodes(qtable, episodes, 11, config, learn=True)
    ]

    block = 100
    flags = np.asarray(outcomes, dtype=float)
    print("\n  episodes      success rate")
    for start in range(0, episodes, block):
        rate = flags[start : start + block].mean()
        bar = "#" * int(round(30 * rate))
        print(f"  {start:>4}-{start + block - 1:<6}  {rate:5.0%}  {bar}")

    greedy = agent.evaluate(qtable, 60, seed=77, config=config, policy="greedy")
    random_ = agent.evaluate(qtable, 60, seed=77, config=config, policy="random")
    print(f"\nheld-out scenes : greedy {greedy.success_rate:.0%} success,"
          f" median {greedy.median_steps:.0f} steps")
    print(f"                  random {random_.success_rate:.0%} success,"
          f" median {random_.median_steps:.0f} steps")
    print("(600 episodes is a taste; training for 2000, as `cocktail train-rl`"
          " does by default, passes 90%)")

    out = Path("demo_out")
    out.mkdir(exist_ok=True)
    path = out / "qtable.npz"
    agent.save_qtable(path, qtable)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
